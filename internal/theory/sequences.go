package theory

import (
	"fmt"
	"slices"

	"amnesiacflood/internal/analysis"
	"amnesiacflood/internal/graph"
)

// This file makes the combinatorial objects of the Theorem 3.1 proof
// explicit and queryable. The proof defines round-sets R_0, R_1, ... (R_0 =
// the origin set, R_i = nodes receiving M in round i) and studies the set R
// of sequences R_s ... R_{s+d} whose endpoints share a node (equation (1)
// of the paper), with start-point s and duration d > 0. The subset Re of
// even-duration sequences must be empty, or the minimal-duration,
// earliest-start sequence R* triggers one of the two contradiction cases of
// Figure 4.

// Sequence is one element of the paper's set R: node x occurs in round-sets
// R_Start and R_Start+Duration.
type Sequence struct {
	// Node is the shared node x.
	Node graph.NodeID
	// Start is the paper's s: the index of the earlier round-set.
	Start int
	// Duration is the paper's d > 0.
	Duration int
}

// End returns s + d, the index of the later round-set.
func (s Sequence) End() int {
	return s.Start + s.Duration
}

// String renders the sequence like the paper writes it.
func (s Sequence) String() string {
	return fmt.Sprintf("x=%d in R_%d and R_%d (d=%d)", s.Node, s.Start, s.End(), s.Duration)
}

// SequenceAnalysis summarises the set R for one execution.
type SequenceAnalysis struct {
	// Sequences is all of R, sorted by (Start, Duration, Node).
	Sequences []Sequence
	// EvenCount is |Re|. Theorem 3.1's proof shows it must be zero.
	EvenCount int
	// MinDuration and MaxDuration are over all of R (0 when R is empty).
	MinDuration, MaxDuration int
	// DurationHistogram counts sequences per duration.
	DurationHistogram map[int]int
}

// eachRoundSets calls visit for every node with the ascending indices i of
// the round-sets R_i the node belongs to: 0 for an origin (R_0 is the origin
// set), then its first and last receive round. Coverage keeps no round in
// between, so a node in a third round-set (a third receipt, or a second one
// at an origin) is reported as an error instead: two of any three
// round-sets share a parity, which puts the node in two of them an even
// duration apart. Every verdict therefore equals that of walking all of
// R_0, R_1, ... pair by pair.
func eachRoundSets(cov *analysis.Coverage, visit func(v graph.NodeID, rounds []int) error) error {
	counts, first, last := cov.ReceiveCounts(), cov.FirstReceive(), cov.LastReceive()
	origin := make([]bool, len(counts))
	for _, o := range cov.Origins() {
		origin[o] = true
	}
	var buf [2]int
	for v, count := range counts {
		rounds := buf[:0]
		if origin[v] {
			rounds = append(rounds, 0)
		}
		if count > 0 {
			rounds = append(rounds, first[v])
		}
		if sets := len(rounds) + max(count-1, 0); sets > 2 {
			return fmt.Errorf("theory: node %d is in %d round-sets, R_%d to R_%d: two of any three are an even duration apart (Lemma 3.2 machinery violated)",
				v, sets, rounds[0], last[v])
		}
		if count > 1 {
			rounds = append(rounds, last[v])
		}
		if err := visit(graph.NodeID(v), rounds); err != nil {
			return err
		}
	}
	return nil
}

// AnalyzeSequences reconstructs the paper's sequence set R of a run,
// including R_0 (the origin set). It fails on a node in three round-sets,
// which already makes Re non-empty (see eachRoundSets).
func AnalyzeSequences(cov *analysis.Coverage) (SequenceAnalysis, error) {
	out := SequenceAnalysis{DurationHistogram: map[int]int{}}
	err := eachRoundSets(cov, func(v graph.NodeID, rounds []int) error {
		if len(rounds) < 2 {
			return nil
		}
		seq := Sequence{Node: v, Start: rounds[0], Duration: rounds[1] - rounds[0]}
		out.Sequences = append(out.Sequences, seq)
		out.DurationHistogram[seq.Duration]++
		if seq.Duration%2 == 0 {
			out.EvenCount++
		}
		if out.MinDuration == 0 || seq.Duration < out.MinDuration {
			out.MinDuration = seq.Duration
		}
		out.MaxDuration = max(out.MaxDuration, seq.Duration)
		return nil
	})
	if err != nil {
		return SequenceAnalysis{}, err
	}
	slices.SortFunc(out.Sequences, func(a, b Sequence) int {
		if a.Start != b.Start {
			return a.Start - b.Start
		}
		if a.Duration != b.Duration {
			return a.Duration - b.Duration
		}
		return int(a.Node) - int(b.Node)
	})
	return out, nil
}

// MinimalEvenSequence returns the paper's R*: among even-duration
// sequences, one with minimum duration and, among those, earliest start —
// the object both Figure 4 contradiction cases are built on. ok is false
// when Re is empty (which Theorem 3.1 proves always holds for real
// executions; doctored rounds exercise the true branch in tests).
func (a SequenceAnalysis) MinimalEvenSequence() (Sequence, bool) {
	best := Sequence{}
	found := false
	for _, s := range a.Sequences {
		if s.Duration%2 != 0 {
			continue
		}
		if !found ||
			s.Duration < best.Duration ||
			(s.Duration == best.Duration && s.Start < best.Start) {
			best = s
			found = true
		}
	}
	return best, found
}

// CheckSequenceMachinery re-verifies the odd-gap invariant through the
// explicit sequence set and cross-checks AnalyzeSequences against
// CheckOddGapInvariant: the two must agree that Re is empty.
func CheckSequenceMachinery(cov *analysis.Coverage) error {
	seqs, err := AnalyzeSequences(cov)
	if err != nil {
		return err
	}
	gapErr := CheckOddGapInvariant(cov)
	if seqs.EvenCount > 0 {
		seq, _ := seqs.MinimalEvenSequence()
		if gapErr == nil {
			return fmt.Errorf("theory: sequence analysis found %s but the gap check passed (internal inconsistency)", seq)
		}
		return fmt.Errorf("theory: Re is non-empty, minimal sequence %s (Figure 4 contradiction applies)", seq)
	}
	if gapErr != nil {
		return fmt.Errorf("theory: gap check failed but sequence analysis found Re empty: %w", gapErr)
	}
	return nil
}
