package fleet

import (
	"fmt"

	"slinfer/internal/invariants"
	"slinfer/internal/sim"
)

// checker is the fleet-level invariant witness. The per-shard suites
// (internal/invariants) verify each shard's interior; the checker verifies
// the front door's own bookkeeping — the properties a multi-shard run adds
// on top of N correct single runs:
//
//   - Epoch clock synchrony/monotonicity: at every barrier, each shard's
//     virtual clock sits exactly on the epoch boundary and never moves
//     backwards across epochs.
//   - Routing range: every routing decision lands inside the active set
//     (reported at decision time by the front door).
//   - Request conservation: offered == accepted + rejected; every routed
//     request was submitted to exactly the shard it was routed to
//     (per-shard report Total == front-door routed count); no request is
//     lost or duplicated across shards (the routed counts and the shard
//     totals both sum to accepted) or across a crash (every accepted
//     request ends completed, dropped, retry-exhausted, or live).
//
// Like the shard suites, the checker is a pure witness over front-door
// state and finished reports; it never touches shard interiors mid-epoch.
type checker struct {
	violations []Violation
	lastEpoch  sim.Time
}

// Violation aliases the invariants type so fleet findings render and
// aggregate uniformly with shard-suite findings.
type Violation = invariants.Violation

const maxViolations = 100

func newChecker() *checker { return &checker{lastEpoch: -1} }

func (c *checker) report(check string, at sim.Time, format string, args ...any) {
	if len(c.violations) >= maxViolations {
		return
	}
	c.violations = append(c.violations, Violation{
		Check: check, At: at, Detail: fmt.Sprintf(format, args...),
	})
}

// epochBarrier verifies barrier synchrony after every shard advanced.
func (c *checker) epochBarrier(epoch int, end sim.Time, snaps []Snapshot) {
	if end < c.lastEpoch {
		c.report("fleet-clock", end, "epoch %d boundary %v precedes previous boundary %v",
			epoch, end, c.lastEpoch)
	}
	c.lastEpoch = end
	for _, s := range snaps {
		if s.Now != end {
			c.report("fleet-clock", end, "epoch %d: shard %d clock %v, barrier is %v",
				epoch, s.Shard, s.Now, end)
		}
		if s.Outstanding < 0 {
			c.report("fleet-conservation", end, "epoch %d: shard %d outstanding %d < 0 (terminal > submitted)",
				epoch, s.Shard, s.Outstanding)
		}
	}
}

// runDone reconciles the finished run's accounting. Re-drives count on
// every shard that saw the request (totals sum to accepted + redriven);
// pulled requests that exhausted their budget sit in the ledger but were
// once accepted (so they are excluded from the front-door shed count);
// and every accepted request is accounted for exactly once as completed,
// dropped, retry-exhausted, or still live at run end. On fault-free runs
// redriven and retry-exhausted are zero and the identities collapse to
// offered == accepted + rejected and completed + dropped + live ==
// accepted. live is the number of requests the shards' controllers still
// hold at run end (core.Controller.AppendLive), counted by finish.
func (c *checker) runDone(res *Result, shards []*shard, live int64) {
	frontShed := int64(len(res.Rejections)) - res.RetryExhausted
	if got := res.Accepted + frontShed; got != res.Offered {
		c.report("fleet-conservation", c.lastEpoch,
			"accepted %d + front-door rejected %d = %d, offered %d",
			res.Accepted, frontShed, got, res.Offered)
	}
	wantRouted := res.Accepted + res.Redriven
	var routedSum, totalSum, completedSum, droppedSum int64
	for i, sd := range shards {
		routedSum += int64(sd.routed)
		totalSum += res.Shards[i].Total
		completedSum += res.Shards[i].Completed
		droppedSum += res.Shards[i].Dropped
		if res.Shards[i].Total != int64(sd.routed) {
			c.report("fleet-conservation", c.lastEpoch,
				"shard %d submitted %d requests, front door routed %d (request lost or duplicated)",
				i, res.Shards[i].Total, sd.routed)
		}
		if sliced := int64(len(res.ShardTraces[i].Requests)); sliced != int64(sd.sliceCount) {
			c.report("fleet-conservation", c.lastEpoch,
				"shard %d trace slice holds %d requests, front door placed %d",
				i, sliced, sd.sliceCount)
		}
	}
	if routedSum != wantRouted {
		c.report("fleet-conservation", c.lastEpoch,
			"per-shard routed counts sum to %d, accepted %d + redriven %d = %d",
			routedSum, res.Accepted, res.Redriven, wantRouted)
	}
	if totalSum != wantRouted {
		c.report("fleet-conservation", c.lastEpoch,
			"shard report totals sum to %d, accepted %d + redriven %d = %d",
			totalSum, res.Accepted, res.Redriven, wantRouted)
	}
	if res.Report.Total != totalSum {
		c.report("fleet-conservation", c.lastEpoch,
			"merged report total %d, shard totals sum to %d", res.Report.Total, totalSum)
	}
	if got := completedSum + droppedSum + res.RetryExhausted + live; got != res.Accepted {
		c.report("fleet-conservation", c.lastEpoch,
			"request lost or duplicated: completed %d + dropped %d + retry-exhausted %d + live %d = %d, accepted %d",
			completedSum, droppedSum, res.RetryExhausted, live, got, res.Accepted)
	}
}
