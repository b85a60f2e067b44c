package dist

import (
	"reflect"
	"testing"

	"datacutter/internal/elastic"
)

func TestReplanMovesOrphanedCopiesToExistingHosts(t *testing.T) {
	in := []PlacementEntry{
		{Filter: "F", Host: "a", Copies: 2},
		{Filter: "F", Host: "b", Copies: 2},
		{Filter: "G", Host: "b", Copies: 1},
	}
	out, err := elastic.ReplanDead(in, map[string]bool{"a": true})
	if err != nil {
		t.Fatal(err)
	}
	want := []PlacementEntry{
		{Filter: "F", Host: "b", Copies: 4}, // b already ran F: absorbs a's copies
		{Filter: "G", Host: "b", Copies: 1},
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %+v, want %+v", out, want)
	}
}

func TestReplanSpreadsFullyOrphanedFilterAcrossSurvivors(t *testing.T) {
	in := []PlacementEntry{
		{Filter: "F", Host: "a", Copies: 3}, // all of F dies with a
		{Filter: "G", Host: "b", Copies: 1},
		{Filter: "G", Host: "c", Copies: 1},
	}
	out, err := elastic.ReplanDead(in, map[string]bool{"a": true})
	if err != nil {
		t.Fatal(err)
	}
	// F had no surviving hosts: round-robin across all survivors (b, c in
	// first-appearance order), 3 copies -> b:2, c:1.
	want := []PlacementEntry{
		{Filter: "F", Host: "b", Copies: 2},
		{Filter: "F", Host: "c", Copies: 1},
		{Filter: "G", Host: "b", Copies: 1},
		{Filter: "G", Host: "c", Copies: 1},
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %+v, want %+v", out, want)
	}
}

func TestReplanNoSurvivors(t *testing.T) {
	in := []PlacementEntry{{Filter: "F", Host: "a", Copies: 1}}
	if _, err := elastic.ReplanDead(in, map[string]bool{"a": true}); err == nil {
		t.Fatal("want error when every host is dead")
	}
}

func TestReplanNoDeadHostsIsIdentity(t *testing.T) {
	in := []PlacementEntry{
		{Filter: "F", Host: "a", Copies: 2},
		{Filter: "G", Host: "b", Copies: 1},
	}
	out, err := elastic.ReplanDead(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v, want input unchanged", out)
	}
}

func TestReplanMergesDuplicateEntries(t *testing.T) {
	// Two entries for (F, b) in the input must merge in the output.
	in := []PlacementEntry{
		{Filter: "F", Host: "b", Copies: 1},
		{Filter: "F", Host: "a", Copies: 1},
		{Filter: "F", Host: "b", Copies: 1},
	}
	out, err := elastic.ReplanDead(in, map[string]bool{"a": true})
	if err != nil {
		t.Fatal(err)
	}
	want := []PlacementEntry{{Filter: "F", Host: "b", Copies: 3}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %+v, want %+v", out, want)
	}
}

func TestReplanSingleSurvivor(t *testing.T) {
	// Everything collapses onto the one host left standing, totals intact.
	in := []PlacementEntry{
		{Filter: "F", Host: "a", Copies: 2},
		{Filter: "F", Host: "b", Copies: 1},
		{Filter: "G", Host: "b", Copies: 3},
		{Filter: "G", Host: "c", Copies: 2},
		{Filter: "H", Host: "a", Copies: 1},
	}
	out, err := elastic.ReplanDead(in, map[string]bool{"a": true, "b": true})
	if err != nil {
		t.Fatal(err)
	}
	want := []PlacementEntry{
		{Filter: "F", Host: "c", Copies: 3},
		{Filter: "G", Host: "c", Copies: 5},
		{Filter: "H", Host: "c", Copies: 1},
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %+v, want %+v", out, want)
	}
}

func TestReplanAllButCoordinatorDead(t *testing.T) {
	// Only the coordinator-side host remains: the survivor selection must
	// fold every filter onto it even when it never ran most of them, and
	// per-filter copy totals must be preserved exactly.
	in := []PlacementEntry{
		{Filter: "Src", Host: "coord", Copies: 1},
		{Filter: "F", Host: "w1", Copies: 2},
		{Filter: "F", Host: "w2", Copies: 2},
		{Filter: "K", Host: "w2", Copies: 3},
	}
	out, err := elastic.ReplanDead(in, map[string]bool{"w1": true, "w2": true})
	if err != nil {
		t.Fatal(err)
	}
	want := []PlacementEntry{
		{Filter: "Src", Host: "coord", Copies: 1},
		{Filter: "F", Host: "coord", Copies: 4},
		{Filter: "K", Host: "coord", Copies: 3},
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %+v, want %+v", out, want)
	}
}

func TestReplanWeightedHosts(t *testing.T) {
	// Surviving hosts with unequal copy counts (the WRR weights) keep
	// their relative weight and absorb orphans in first-appearance order:
	// the per-filter total is conserved and redistribution is by position,
	// not proportional to existing weight.
	in := []PlacementEntry{
		{Filter: "F", Host: "big", Copies: 4},
		{Filter: "F", Host: "small", Copies: 1},
		{Filter: "F", Host: "dying", Copies: 3},
	}
	out, err := elastic.ReplanDead(in, map[string]bool{"dying": true})
	if err != nil {
		t.Fatal(err)
	}
	// 3 orphans round-robin over (big, small): big +2, small +1.
	want := []PlacementEntry{
		{Filter: "F", Host: "big", Copies: 6},
		{Filter: "F", Host: "small", Copies: 2},
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %+v, want %+v", out, want)
	}
	total := 0
	for _, pe := range out {
		total += pe.Copies
	}
	if total != 8 {
		t.Fatalf("copy total %d, want 8 (replan must preserve TotalCopies)", total)
	}
}

func TestReplanDeterministic(t *testing.T) {
	in := []PlacementEntry{
		{Filter: "F", Host: "a", Copies: 5},
		{Filter: "G", Host: "b", Copies: 2},
		{Filter: "G", Host: "c", Copies: 2},
		{Filter: "H", Host: "c", Copies: 1},
	}
	dead := map[string]bool{"a": true}
	first, err := elastic.ReplanDead(in, dead)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		again, err := elastic.ReplanDead(in, dead)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("replan not deterministic: %+v vs %+v", first, again)
		}
	}
}

// A peer link feeds only the sessions that were up when it formed. Frames
// still in a link when their job's session ends or is replaced (the tail of
// an aborted or rescaled attempt) are dropped, never handed to the
// successor, whose queues may already be closed.
func TestPeerFramesBoundToSessionsAtLinkTime(t *testing.T) {
	old, next := &session{}, &session{}
	w := &Worker{sessions: map[uint64]*session{7: old}}
	bound := w.peerSessions()
	if w.peerSession(7, bound) != old {
		t.Fatal("frame for the live session was not dispatched to it")
	}
	if w.peerSession(8, bound) != nil {
		t.Fatal("frame for a job without a session was dispatched")
	}
	w.sessions[7] = next
	if w.peerSession(7, bound) != nil {
		t.Fatal("stale frame was dispatched to the successor session")
	}
	if w.peerSession(7, w.peerSessions()) != next {
		t.Fatal("link formed after the replacement does not feed the successor")
	}
	delete(w.sessions, 7)
	if w.peerSession(7, bound) != nil {
		t.Fatal("frame was dispatched after its session ended")
	}
}
