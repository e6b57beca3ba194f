package harmony

import (
	"reflect"
	"testing"

	"webharmony/internal/param"
)

// driveSpeculative runs iters tuning iterations through the speculative
// Lookahead/CommitStep protocol: peek a batch of upcoming proposals,
// measure every candidate up front (batch measurement is what a parallel
// runner does), then commit the measurements in proposal order,
// discarding the rest of the batch when a commit changes Epoch. shiftAt,
// when positive, flips the cluster's bias once that many iterations have
// committed — the same flip the sequential twin applies. Like the real
// runner, speculation never crosses the workload boundary: a candidate
// measured under the old workload must not be committed under the new
// one, so batches are capped at the flip. It returns how many peeked
// candidates were discarded.
func driveSpeculative(st *Strategy, fc *fakeCluster, iters, lookahead, shiftAt int) int {
	type meas struct {
		wips  float64
		lines []float64
	}
	discarded := 0
	done := 0
	for done < iters {
		depth := lookahead
		if depth > iters-done {
			depth = iters - done
		}
		if done < shiftAt && depth > shiftAt-done {
			depth = shiftAt - done
		}
		props := st.Lookahead(depth)
		epoch := st.Epoch()
		specs := make([]meas, len(props))
		for j, m := range props {
			fc.stage(m)
			w, l := fc.RunIteration()
			specs[j] = meas{w, l}
		}
		for j := range props {
			if next := st.Lookahead(1); !next[0][0].Equal(props[j][0]) {
				panic("speculative candidate diverged from the search")
			}
			st.CommitStep(specs[j].wips, specs[j].lines)
			done++
			if done == shiftAt {
				fc.bias = -60
			}
			if st.Epoch() != epoch {
				discarded += len(props) - j - 1
				break
			}
		}
	}
	return discarded
}

// TestCommitStepMatchesStep is the harmony-level property behind the
// speculative Figure 5 runner: for every strategy kind, driving the
// strategy through Lookahead/CommitStep batches — including batches cut
// short by shift-detection restarts — produces exactly the state the
// sequential reference seqStep (ask, run, tell) reaches: same performance
// record, same per-session histories and resets, same final answer. The fake cluster is noiseless so the
// speculative run's extra measurements of discarded candidates cannot
// desynchronize the two runs.
func TestCommitStepMatchesStep(t *testing.T) {
	const iters, shiftAt = 80, 10
	opts := Options{Seed: 7, ShiftFactor: 0.05, ShiftPatience: 1}
	for _, kind := range []StrategyKind{StrategyDefault, StrategyDuplication, StrategyPartitioning, StrategyHybrid} {
		// Reference: the sequential formulation.
		seqFC := newFakeCluster(0)
		seq := NewStrategy(kind, seqFC.tiers(), 2, opts)
		for i := 0; i < iters; i++ {
			seqStep(seq, seqFC)
			if i+1 == shiftAt {
				seqFC.bias = -60
			}
		}

		specFC := newFakeCluster(0)
		spec := NewStrategy(kind, specFC.tiers(), 2, opts)
		discarded := driveSpeculative(spec, specFC, iters, 16, shiftAt)

		if kind != StrategyDuplication && discarded == 0 {
			// The equality below is only meaningful if restarts actually cut
			// batches short. Duplication is exempt structurally: its joint
			// lookahead is capped at 2 by the one-knob back tier, and a
			// restart can never fire sooner than the second commit after the
			// previous one (the first always sets the new best), so its
			// restarts always land on a batch's last entry.
			t.Errorf("%v: shift restart discarded no speculation", kind)
		}
		if !reflect.DeepEqual(seq.Perf(), spec.Perf()) {
			t.Fatalf("%v: Perf histories differ", kind)
		}
		if sb, si := seq.Best(); true {
			if pb, pi := spec.Best(); sb != pb || si != pi {
				t.Errorf("%v: Best (%v, %d) != (%v, %d)", kind, sb, si, pb, pi)
			}
		}
		if seq.iters != spec.iters || seq.Epoch() != spec.Epoch() {
			t.Errorf("%v: iterations/epoch diverged", kind)
		}
		for i, sess := range seq.Sessions() {
			other := spec.Sessions()[i]
			if sess.Resets() != other.Resets() {
				t.Errorf("%v session %d: resets %d != %d", kind, i, sess.Resets(), other.Resets())
			}
			if !reflect.DeepEqual(sess.History(), other.History()) {
				t.Fatalf("%v session %d: histories differ", kind, i)
			}
		}
		want, got := seq.BestNodeConfigs(), spec.BestNodeConfigs()
		if len(want) != 4 || len(got) != 4 {
			t.Fatalf("%v: BestNodeConfigs covers %d/%d nodes, want 4", kind, len(want), len(got))
		}
		for node, cfg := range want {
			if !cfg.Equal(got[node]) {
				t.Errorf("%v: best config for node %d differs", kind, node)
			}
		}
	}
}

// TestLookaheadBounds pins the Lookahead contract edges: a non-positive
// max still yields one entry, a hybrid's lookahead never crosses the
// duplication→partitioning switch, and peeking never advances the search.
func TestLookaheadBounds(t *testing.T) {
	fc := newFakeCluster(0)
	st := NewStrategy(StrategyHybrid, fc.tiers(), 2, Options{Seed: 5})
	if got := len(st.Lookahead(0)); got != 1 {
		t.Fatalf("Lookahead(0) returned %d entries, want 1", got)
	}
	// Walk to one iteration short of the hybrid switch: the lookahead
	// must be truncated to that single remaining duplication iteration.
	for st.iters < st.hybridK-1 {
		seqStep(st, fc)
	}
	if got := len(st.Lookahead(16)); got != 1 {
		t.Fatalf("Lookahead(16) at switch-1 returned %d entries, want 1", got)
	}
	before := st.iters
	st.Lookahead(16)
	st.Lookahead(16)
	if st.iters != before {
		t.Fatal("Lookahead advanced the search")
	}
	// The switch is lazy: after the duplication phase's final commit it
	// happens on the next Lookahead, which must peek the new
	// partitioning sessions rather than the retired duplication ones.
	seqStep(st, fc)
	if len(st.Lookahead(4)) < 1 {
		t.Fatal("post-switch lookahead empty")
	}
	if got := st.Sessions()[0].Space().Len(); got != 3 {
		t.Fatalf("Lookahead did not perform the hybrid switch (dim=%d)", got)
	}
}

// TestSessionPeekPending verifies Session.Peek while a proposal is
// outstanding: it returns that pending proposal (depth 1) rather than
// panicking, so a runner holding an un-reported ask can still inspect
// what it owes the session.
func TestSessionPeekPending(t *testing.T) {
	space := param.MustSpace(param.Def{Name: "a", Min: 0, Max: 10, Default: 5, Step: 1})
	sess := NewSession(space, Options{Seed: 3})
	cfg := sess.NextConfig()
	peek := sess.Peek(8)
	if len(peek) != 1 || !peek[0].Equal(cfg) {
		t.Fatalf("Peek during outstanding ask = %v, want [%v]", peek, cfg)
	}
}
