package site

// Checkpoint compacts the journal to a snapshot now, whatever
// CheckpointEvery says (benchmarks time it at a chosen history).
func (s *Site) Checkpoint() error { return s.checkpoint() }
