package eval

import (
	"fmt"
	"math/rand"
	"strings"

	"gallium"
	"gallium/internal/engine"
	"gallium/internal/ir"
	"gallium/internal/middleboxes"
	"gallium/internal/packet"
	"gallium/internal/partition"
)

// Ablations quantify the design choices DESIGN.md calls out: how much the
// switch's resource constraints bite (transfer budget, pipeline depth),
// what transfer rematerialization buys, what the §7 weighted objective
// changes, and the §7 cache-mode trade-off between switch memory and
// fast-path coverage.

// AblationRow is one sweep point.
type AblationRow struct {
	Middlebox string
	Setting   string
	// OffloadPct is the fraction of statements on the switch.
	OffloadPct float64
	// TransferBytes is FormatA+FormatB on-wire bytes.
	TransferBytes int
	// Extra carries sweep-specific detail.
	Extra string
}

// Sweep is one partition ablation: one row per (middlebox, setting).
type Sweep struct {
	Title string
	Rows  []AblationRow
}

// sweepSetting is one column of a partition ablation: its label and the
// options every middlebox compiles with.
type sweepSetting struct {
	label string
	opts  gallium.Options
}

// partitionSweeps is every partition ablation in the order Ablations
// prints them. detail reads a result's transfer bytes and extra column.
var partitionSweeps = []struct {
	title    string
	settings []sweepSetting
	detail   func(res *partition.Result) (xfer int, extra string)
}{
	{"Ablation: transfer budget (Constraint 5)", []sweepSetting{
		{"2B budget", gallium.Options{TransferBytes: gallium.Int(2)}},
		{"4B budget", gallium.Options{TransferBytes: gallium.Int(4)}},
		{"8B budget", gallium.Options{TransferBytes: gallium.Int(8)}},
		{"20B budget", gallium.Options{TransferBytes: gallium.Int(20)}},
	}, func(res *partition.Result) (int, string) { return transferBytes(res), "" }},
	{"Ablation: pipeline depth (Constraint 2)", []sweepSetting{
		{"depth 6", gallium.Options{PipelineDepth: gallium.Int(6)}},
		{"depth 12", gallium.Options{PipelineDepth: gallium.Int(12)}},
		{"depth 20", gallium.Options{PipelineDepth: gallium.Int(20)}},
		{"depth 32", gallium.Options{PipelineDepth: gallium.Int(32)}},
	}, func(res *partition.Result) (int, string) {
		return transferBytes(res), fmt.Sprintf("used %d", max(res.Report.DepthPre, res.Report.DepthPost))
	}},
	{"Ablation: header rematerialization", []sweepSetting{
		{"remat on", gallium.Options{}},
		{"remat off", gallium.Options{NoRematerialization: true}},
	}, func(res *partition.Result) (int, string) { return transferBytes(res), "" }},
	// The §7 weighted cost model against the statement-count objective.
	{"Ablation: partitioning objective (§7 cost model)", []sweepSetting{
		{"count", gallium.Options{}},
		{"weighted", gallium.Options{WeightedObjective: true}},
	}, func(res *partition.Result) (int, string) {
		lookups := 0
		for id, a := range res.Assign {
			if a != partition.NonOff {
				switch res.Prog.Fn.Stmt(id).Kind {
				case ir.MapFind, ir.VecGet:
					lookups++
				}
			}
		}
		return 0, fmt.Sprintf("%d lookups on switch", lookups)
	}},
}

// transferBytes is a partition's FormatA+FormatB on-wire bytes.
func transferBytes(res *partition.Result) int {
	return res.FormatA.DataLen() + res.FormatB.DataLen()
}

// PartitionSweeps runs every partition ablation: each evaluation
// middlebox compiled under each of a sweep's settings.
func PartitionSweeps() ([]Sweep, error) {
	var sweeps []Sweep
	for _, sw := range partitionSweeps {
		s := Sweep{Title: sw.title}
		for _, mb := range middleboxes.All() {
			for _, set := range sw.settings {
				art, err := gallium.CompileBuiltin(mb.Name, set.opts)
				if err != nil {
					return nil, err
				}
				xfer, extra := sw.detail(art.Res)
				s.Rows = append(s.Rows, AblationRow{
					Middlebox: mb.Name, Setting: set.label,
					OffloadPct:    100 * art.Res.Report.OffloadFraction(),
					TransferBytes: xfer, Extra: extra,
				})
			}
		}
		sweeps = append(sweeps, s)
	}
	return sweeps, nil
}

// CacheRow is one point of the §7 cache-size sweep.
type CacheRow struct {
	Entries     int
	MemoryBytes int
	FastPathPct float64
	Punts       int
	Evictions   int
}

// AblationCacheSize sweeps the MiniLB connection cache under skewed
// traffic: a hot set of connections plus a cold tail, the regime §7's
// cache proposal targets. Each of entries is one row; 0 keeps the full
// table resident.
func AblationCacheSize(entries ...int) ([]CacheRow, error) {
	var rows []CacheRow
	for _, n := range entries {
		var opts gallium.Options
		if n > 0 {
			opts.CacheEntries = map[string]int{"conn": n}
		}
		art, err := gallium.CompileBuiltin("minilb", opts)
		if err != nil {
			return nil, err
		}
		tb, err := art.NewTestbed(gallium.TestbedConfig{Setup: func(st *ir.State) { middleboxes.ConfigureState("minilb", st) }},
			gallium.WithCostModel(engine.InstantModel()))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(9))
		total, fast := 12000, 0
		for i := 0; i < total; i++ {
			var src packet.IPv4Addr
			if rng.Intn(5) > 0 {
				src = packet.MakeIPv4Addr(10, 0, 0, byte(1+rng.Intn(20))) // hot set
			} else {
				src = packet.MakeIPv4Addr(10, 0, byte(1+rng.Intn(200)), byte(1+rng.Intn(250))) // cold tail
			}
			p := packet.BuildTCP(src, packet.MakeIPv4Addr(9, 9, 9, 9), 1000, 80, packet.TCPOptions{})
			d, err := tb.Inject(0, p)
			if err != nil {
				return nil, err
			}
			if d.FastPath {
				fast++
			}
		}
		tb.Due(0) // the last packet's write-back still awaits its flip
		st := tb.Switch().Stats()
		rows = append(rows, CacheRow{
			Entries:     n,
			MemoryBytes: art.Res.Report.SwitchMemoryBytes,
			FastPathPct: 100 * float64(fast) / float64(total),
			Punts:       st.Punts,
			Evictions:   st.Evictions,
		})
	}
	return rows, nil
}

// FormatAblations renders every sweep.
func FormatAblations(sweeps []Sweep, cache []CacheRow) string {
	var b strings.Builder
	for _, s := range sweeps {
		fmt.Fprintf(&b, "%s\n", s.Title)
		fmt.Fprintf(&b, "  %-16s %-14s %10s %10s %s\n", "middlebox", "setting", "offload", "xfer", "")
		for _, r := range s.Rows {
			fmt.Fprintf(&b, "  %-16s %-14s %9.0f%% %9dB %s\n", r.Middlebox, r.Setting, r.OffloadPct, r.TransferBytes, r.Extra)
		}
		b.WriteString("\n")
	}

	b.WriteString("Ablation: §7 switch-as-cache (MiniLB, skewed traffic; 0 = full table resident)\n")
	fmt.Fprintf(&b, "  %8s %12s %10s %8s %10s\n", "entries", "switch mem", "fast path", "punts", "evictions")
	for _, r := range cache {
		fmt.Fprintf(&b, "  %8d %11dB %9.1f%% %8d %10d\n", r.Entries, r.MemoryBytes, r.FastPathPct, r.Punts, r.Evictions)
	}
	return b.String()
}

// Ablations runs every sweep.
func Ablations() (string, error) {
	sweeps, err := PartitionSweeps()
	if err != nil {
		return "", err
	}
	cache, err := AblationCacheSize(0, 8, 32, 128, 512)
	if err != nil {
		return "", err
	}
	return FormatAblations(sweeps, cache), nil
}
