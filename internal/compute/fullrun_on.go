//go:build slinfer_fullrun

package compute

// FullRun, set by building with -tags slinfer_fullrun, turns on the
// oracle mode the golden suites run under in CI: simulate keeps stepping
// after the demand test accepts and panics unless the step loop also ends
// in OK, and policy.BinPack.PlaceNew runs every node its prefilter drops
// through the full scale-out order and panics unless that order rejects
// it too.
const FullRun = true
