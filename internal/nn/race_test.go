//go:build race

package nn

// Under the race detector sync.Pool drops a share of what it is given,
// so the kernels' pooled jobs and wait groups are allocated again now
// and then.
func init() { raceEnabled = true }
