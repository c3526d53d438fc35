//go:build slinfer_fullrun

package compute

// fullRun, set by building with -tags slinfer_fullrun, makes simulate keep
// stepping after the demand test accepts and panic unless the step loop
// also ends in OK: the oracle mode the golden suites run under in CI.
const fullRun = true
