//go:build race

package sweep

// raceEnabled reports whether the test binary runs under the race
// detector, which makes every simulated run about ten times slower.
const raceEnabled = true
