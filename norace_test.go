//go:build !race

package cypher

const raceEnabled = false
