//go:build !race

package core

// raceEnabled is false without -race; see race_on_test.go.
const raceEnabled = false
