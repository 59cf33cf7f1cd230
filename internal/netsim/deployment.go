package netsim

import (
	"math"

	"gallium/internal/ir"
	"gallium/internal/packet"
	"gallium/internal/partition"
	"gallium/internal/serverrt"
	"gallium/internal/switchsim"
)

// instantModel makes every cost zero (an infinite line rate, a 1 Hz core
// executing zero cycles), so a walker under it moves packets with no
// timing at all.
var instantModel = CostModel{CoreHz: 1, LineRateBps: math.Inf(1)}

// Deployment wires a simulated switch and middlebox server into the
// paper's Figure 1 topology and moves packets through pre → server → post
// with real on-the-wire Gallium headers and no timing model. It is its
// walker's Committer with zero propagation delay: stage and flip before
// the packet is released — the output-commit semantics the engine's
// workers share and the Testbed layers control-plane latency on.
type Deployment struct {
	Switch *switchsim.Switch
	Server *serverrt.Server
	walk   Walker
}

// NewDeployment builds a deployment for a partitioned middlebox.
func NewDeployment(res *partition.Result) *Deployment {
	d := &Deployment{Switch: switchsim.New(res), Server: serverrt.New(res)}
	d.walk = NewWalker(instantModel, []Stage{{Switch: d.Switch, Server: d.Server}}, 1, 0, 0, d)
	return d
}

// Configure seeds middlebox state on both sides: server-resident state is
// set directly, then replicated there through the switch control plane.
func (d *Deployment) Configure(setup func(st *ir.State)) error {
	setup(d.Server.State)
	return d.Switch.SeedFrom(d.Server.State)
}

// Reconfigure applies one control-plane change to the bare pair between
// packets (see reconfigure). Updates rejected because the target table is
// full stay server-only, matching the write-back soft-failure policy.
func (d *Deployment) Reconfigure(mutate func(st *ir.State) []switchsim.Update, updates []switchsim.Update) error {
	_, err := reconfigure(d.Switch, d.Server.State, mutate, updates)
	return err
}

// Trace describes one packet's full trip.
type Trace struct {
	Action   ir.Action
	FastPath bool
	// SrvSteps is the server's executed statement count.
	SrvSteps int
	// SyncOps is the number of control-plane operations output commit held
	// this packet for, the flip included (0 on the fast path).
	SyncOps int
}

// Due implements Committer: every batch flipped when it was committed.
func (d *Deployment) Due(int64) {}

// Commit implements Committer: stage and flip at once (ApplyBatch). §7
// cache fills apply without stalling the packet; updates the switch might
// already serve are synchronized under output commit before release.
func (d *Deployment) Commit(_ int, updates []switchsim.Update, punt bool, _ int64) (int, error) {
	staged, _, syncs, err := ApplyBatch(d.Switch, 0, updates, punt)
	if err != nil || staged == 0 {
		return 0, err
	}
	if punt {
		return syncs, nil
	}
	return staged, nil
}

// Process moves one packet through the deployment.
func (d *Deployment) Process(pkt *packet.Packet) (Trace, error) {
	var t float64
	trip, err := d.walk.Stage(0, pkt, &t, nil)
	d.walk.Flush()
	tr := Trace{Action: ir.ActionSent, FastPath: !trip.TookSlow, SrvSteps: trip.SrvSteps}
	if trip.Verdict == MBDrop {
		tr.Action = ir.ActionDropped
	}
	if trip.StallOps > 0 {
		tr.SyncOps = trip.StallOps + 1
	}
	return tr, err
}
