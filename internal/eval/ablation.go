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

func partitionWith(name string, opts gallium.Options) (*partition.Result, error) {
	art, err := gallium.CompileBuiltin(name, opts)
	if err != nil {
		return nil, err
	}
	return art.Res, nil
}

// AblationTransferBudget sweeps Constraint 5.
func AblationTransferBudget() ([]AblationRow, error) {
	var rows []AblationRow
	for _, s := range middleboxes.All() {
		for _, budget := range []int{2, 4, 8, 20} {
			res, err := partitionWith(s.Name, gallium.Options{TransferBytes: gallium.Int(budget)})
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				Middlebox: s.Name, Setting: fmt.Sprintf("%dB budget", budget),
				OffloadPct:    100 * res.Report.OffloadFraction(),
				TransferBytes: res.FormatA.DataLen() + res.FormatB.DataLen(),
			})
		}
	}
	return rows, nil
}

// AblationPipelineDepth sweeps Constraint 2.
func AblationPipelineDepth() ([]AblationRow, error) {
	var rows []AblationRow
	for _, s := range middleboxes.All() {
		for _, depth := range []int{6, 12, 20, 32} {
			res, err := partitionWith(s.Name, gallium.Options{PipelineDepth: gallium.Int(depth)})
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				Middlebox: s.Name, Setting: fmt.Sprintf("depth %d", depth),
				OffloadPct:    100 * res.Report.OffloadFraction(),
				TransferBytes: res.FormatA.DataLen() + res.FormatB.DataLen(),
				Extra:         fmt.Sprintf("used %d", max(res.Report.DepthPre, res.Report.DepthPost)),
			})
		}
	}
	return rows, nil
}

// AblationRematerialization compares transfers with and without header
// rematerialization.
func AblationRematerialization() ([]AblationRow, error) {
	var rows []AblationRow
	for _, s := range middleboxes.All() {
		for _, noRemat := range []bool{false, true} {
			res, err := partitionWith(s.Name, gallium.Options{NoRematerialization: noRemat})
			if err != nil {
				return nil, err
			}
			setting := "remat on"
			if noRemat {
				setting = "remat off"
			}
			rows = append(rows, AblationRow{
				Middlebox: s.Name, Setting: setting,
				OffloadPct:    100 * res.Report.OffloadFraction(),
				TransferBytes: res.FormatA.DataLen() + res.FormatB.DataLen(),
			})
		}
	}
	return rows, nil
}

// AblationObjective compares the statement-count objective against the §7
// weighted cost model.
func AblationObjective() ([]AblationRow, error) {
	var rows []AblationRow
	for _, s := range middleboxes.All() {
		for _, weighted := range []bool{false, true} {
			res, err := partitionWith(s.Name, gallium.Options{WeightedObjective: weighted})
			if err != nil {
				return nil, err
			}
			setting := "count"
			if weighted {
				setting = "weighted"
			}
			lookups := 0
			for id, a := range res.Assign {
				if a != partition.NonOff {
					switch res.Prog.Fn.Stmt(id).Kind {
					case ir.MapFind, ir.VecGet:
						lookups++
					}
				}
			}
			rows = append(rows, AblationRow{
				Middlebox: s.Name, Setting: setting,
				OffloadPct: 100 * res.Report.OffloadFraction(),
				Extra:      fmt.Sprintf("%d lookups on switch", lookups),
			})
		}
	}
	return rows, nil
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
// cache proposal targets.
func AblationCacheSize() ([]CacheRow, error) {
	var rows []CacheRow
	for _, entries := range []int{0, 8, 32, 128, 512} {
		var opts gallium.Options
		if entries > 0 {
			opts.CacheEntries = map[string]int{"conn": entries}
		}
		art, err := gallium.CompileBuiltin("minilb", opts)
		if err != nil {
			return nil, err
		}
		res := art.Res
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
		mem := res.Report.SwitchMemoryBytes
		rows = append(rows, CacheRow{
			Entries:     entries,
			MemoryBytes: mem,
			FastPathPct: 100 * float64(fast) / float64(total),
			Punts:       st.Punts,
			Evictions:   st.Evictions,
		})
	}
	return rows, nil
}

// FormatAblations renders every sweep.
func FormatAblations(transfer, depth, remat, objective []AblationRow, cache []CacheRow) string {
	var b strings.Builder
	section := func(title string, rows []AblationRow, extra bool) {
		fmt.Fprintf(&b, "%s\n", title)
		fmt.Fprintf(&b, "  %-16s %-14s %10s %10s %s\n", "middlebox", "setting", "offload", "xfer", "")
		for _, r := range rows {
			fmt.Fprintf(&b, "  %-16s %-14s %9.0f%% %9dB %s\n", r.Middlebox, r.Setting, r.OffloadPct, r.TransferBytes, r.Extra)
		}
		b.WriteString("\n")
	}
	section("Ablation: transfer budget (Constraint 5)", transfer, false)
	section("Ablation: pipeline depth (Constraint 2)", depth, true)
	section("Ablation: header rematerialization", remat, false)
	section("Ablation: partitioning objective (§7 cost model)", objective, true)

	b.WriteString("Ablation: §7 switch-as-cache (MiniLB, skewed traffic; 0 = full table resident)\n")
	fmt.Fprintf(&b, "  %8s %12s %10s %8s %10s\n", "entries", "switch mem", "fast path", "punts", "evictions")
	for _, r := range cache {
		fmt.Fprintf(&b, "  %8d %11dB %9.1f%% %8d %10d\n", r.Entries, r.MemoryBytes, r.FastPathPct, r.Punts, r.Evictions)
	}
	return b.String()
}

// Ablations runs every sweep.
func Ablations() (string, error) {
	transfer, err := AblationTransferBudget()
	if err != nil {
		return "", err
	}
	depth, err := AblationPipelineDepth()
	if err != nil {
		return "", err
	}
	remat, err := AblationRematerialization()
	if err != nil {
		return "", err
	}
	objective, err := AblationObjective()
	if err != nil {
		return "", err
	}
	cache, err := AblationCacheSize()
	if err != nil {
		return "", err
	}
	return FormatAblations(transfer, depth, remat, objective, cache), nil
}
