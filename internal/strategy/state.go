package strategy

import (
	"fmt"
	"sort"
)

// State is a portable snapshot of a strategy's selection memory, the piece
// of campaign state that must survive a checkpoint/restore cycle: replaying
// a campaign from a checkpoint must judge later candidates against exactly
// the memory the original run had. Slices are sorted, so two snapshots of
// the same memory are deeply equal (and gob/JSON encodings are stable).
type State struct {
	// Name echoes Strategy.Name() so a restore can reject a mismatched
	// snapshot instead of silently resetting the memory.
	Name string
	// Bitmaps holds S1's seen coverage-signature hashes.
	Bitmaps []uint64 `json:",omitempty"`
	// Blocks holds S2's seen predicted-positive blocks.
	Blocks []int32 `json:",omitempty"`
	// Trials holds S3's (or S4's) per-block attempt counts, index-aligned
	// pairs.
	TrialBlocks []int32 `json:",omitempty"`
	TrialCounts []int   `json:",omitempty"`
}

func (s *S1) Save() State {
	st := State{Name: s.Name(), Bitmaps: make([]uint64, 0, len(s.seen))}
	for k := range s.seen {
		st.Bitmaps = append(st.Bitmaps, k)
	}
	sort.Slice(st.Bitmaps, func(i, j int) bool { return st.Bitmaps[i] < st.Bitmaps[j] })
	return st
}

func (s *S1) Load(st State) error {
	if err := checkName(st, s.Name()); err != nil {
		return err
	}
	s.seen = make(map[uint64]bool, len(st.Bitmaps))
	for _, k := range st.Bitmaps {
		s.seen[k] = true
	}
	return nil
}

func (s *S2) Save() State {
	st := State{Name: s.Name(), Blocks: make([]int32, 0, len(s.seen))}
	for b := range s.seen {
		st.Blocks = append(st.Blocks, b)
	}
	sort.Slice(st.Blocks, func(i, j int) bool { return st.Blocks[i] < st.Blocks[j] })
	return st
}

func (s *S2) Load(st State) error {
	if err := checkName(st, s.Name()); err != nil {
		return err
	}
	s.seen = make(map[int32]bool, len(st.Blocks))
	for _, b := range st.Blocks {
		s.seen[b] = true
	}
	return nil
}

func (s *S3) Save() State         { return saveTrials(s.Name(), s.trials) }
func (s *S3) Load(st State) error { return loadTrials(st, s.Name(), &s.trials) }

// S4's memory is per-block uncertain-trial counts — the same shape as
// S3's, reusing the Trial* snapshot fields (Name disambiguates on Load).
func (s *S4) Save() State         { return saveTrials(s.Name(), s.trials) }
func (s *S4) Load(st State) error { return loadTrials(st, s.Name(), &s.trials) }

// saveTrials snapshots a per-block trial-count memory, sorted by block.
func saveTrials(name string, trials map[int32]int) State {
	st := State{Name: name, TrialBlocks: make([]int32, 0, len(trials))}
	for b := range trials {
		st.TrialBlocks = append(st.TrialBlocks, b)
	}
	sort.Slice(st.TrialBlocks, func(i, j int) bool { return st.TrialBlocks[i] < st.TrialBlocks[j] })
	st.TrialCounts = make([]int, len(st.TrialBlocks))
	for i, b := range st.TrialBlocks {
		st.TrialCounts[i] = trials[b]
	}
	return st
}

// loadTrials replaces *trials with the snapshot's counts.
func loadTrials(st State, name string, trials *map[int32]int) error {
	if err := checkName(st, name); err != nil {
		return err
	}
	if len(st.TrialBlocks) != len(st.TrialCounts) {
		return fmt.Errorf("strategy: %s snapshot with %d blocks but %d counts",
			name, len(st.TrialBlocks), len(st.TrialCounts))
	}
	*trials = make(map[int32]int, len(st.TrialBlocks))
	for i, b := range st.TrialBlocks {
		(*trials)[b] = st.TrialCounts[i]
	}
	return nil
}

func checkName(st State, want string) error {
	if st.Name != want {
		return fmt.Errorf("strategy: snapshot of %q loaded into %q", st.Name, want)
	}
	return nil
}
