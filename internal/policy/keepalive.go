package policy

import (
	"slinfer/internal/engine"
	"slinfer/internal/sim"
)

// FixedKeepAlive retains idle instances for a constant window before
// reclamation (§V; paper default 1 s).
type FixedKeepAlive struct {
	// Idle is how long an idle instance lingers.
	Idle sim.Duration
}

// Arm (re)schedules the idle-reclamation timer.
func (p FixedKeepAlive) Arm(h Host, inst *engine.Instance) {
	h.ArmReclaim(inst, p.Idle)
}
