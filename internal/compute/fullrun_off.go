//go:build !slinfer_fullrun

package compute

// fullRun is false in every normal build: simulate returns OK as soon as
// the demand test proves the rest of the schedule feasible.
const fullRun = false
