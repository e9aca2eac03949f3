//go:build race

package exec

// raceEnabled reports whether the test binary runs under the race
// detector, which drops sync.Pool puts at random and instruments
// allocations: byte budgets do not describe the program there.
const raceEnabled = true
