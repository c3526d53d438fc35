//go:build !slinfer_fullrun

package compute

// FullRun is false in every normal build: simulate returns OK as soon as
// the demand test proves the rest of the schedule feasible, and PlaceNew
// drops a node on its prefilter without re-checking it.
const FullRun = false
