//go:build race

package server

// raceEnabled reports that the race detector is on. It allocates on its
// own account, so allocation counts are not pinned under it.
const raceEnabled = true
