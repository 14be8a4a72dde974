package analysis_test

import (
	"strings"
	"testing"

	"bitc/internal/analysis"
)

// sharedAccesses returns the entry-reachable shared accesses the driver's
// race analyzer pairs, computed the way the driver computes them.
func sharedAccesses(t *testing.T, src string) []analysis.Access {
	t.Helper()
	prog, info := check(t, src)
	return analysis.SharedAccesses(prog, info)
}

// TestRaceCases pins the race analyzer's verdict, as a count of
// BITC-RACE001 findings, on the lockset edge cases: lock and atomic
// serialisation, per-field granularity, interprocedural locksets, and
// which accesses can run concurrently at all.
func TestRaceCases(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		races int
		// accesses, when set, checks the shared accesses the races were
		// paired from.
		accesses func(t *testing.T, acs []analysis.Access)
	}{
		{name: "UnsynchronisedRaceDetected", races: 1, src: counterHeader + `
		  (define (bump) unit
		    (set-field! counter v (+ (field counter v) 1)))
		  (define (main) unit
		    (let ((t1 (spawn (bump))) (t2 (spawn (bump))))
		      (join t1) (join t2)))`},
		{name: "LockedAccessesNoRace", src: counterHeader + `
		  (define (bump) unit
		    (with-lock m
		      (set-field! counter v (+ (field counter v) 1))))
		  (define (main) unit
		    (let ((t1 (spawn (bump))) (t2 (spawn (bump))))
		      (join t1) (join t2)))`},
		{name: "AtomicCountsAsSerialised", src: counterHeader + `
		  (define (bump) unit
		    (atomic (set-field! counter v (+ (field counter v) 1))))
		  (define (main) unit
		    (let ((t1 (spawn (bump))) (t2 (spawn (bump))))
		      (join t1) (join t2)))`},
		{name: "MixedLockAndNoLockRaces", races: 2, src: counterHeader + `
		  (define (locked) unit
		    (with-lock m (set-field! counter v 1)))
		  (define (unlocked) unit
		    (set-field! counter v 2))
		  (define (main) unit
		    (let ((t1 (spawn (locked))) (t2 (spawn (unlocked))))
		      (join t1) (join t2)))`},
		{name: "DifferentLocksStillRace", races: 1, src: counterHeader + `
		  (define (a) unit (with-lock m1 (set-field! counter v 1)))
		  (define (b) unit (with-lock m2 (set-field! counter v 2)))
		  (define (main) unit
		    (let ((t1 (spawn (a))) (t2 (spawn (b))))
		      (join t1) (join t2)))`},
		{name: "ReadOnlySharingIsFine", src: counterHeader + `
		  (define (reader) int64 (field counter v))
		  (define (main) unit
		    (let ((t1 (spawn (reader))) (t2 (spawn (reader))))
		      (join t1) (join t2)))`},
		{name: "MainOnlyAccessNoRace", src: counterHeader + `
		  (define (main) unit
		    (set-field! counter v 1)
		    (set-field! counter v 2))`},
		// The lock is taken in the caller, the access happens in the callee.
		{name: "InterproceduralLockHeld", src: counterHeader + `
		  (define (doit) unit
		    (set-field! counter v (+ (field counter v) 1)))
		  (define (bump) unit
		    (with-lock m (doit)))
		  (define (main) unit
		    (let ((t1 (spawn (bump))) (t2 (spawn (bump))))
		      (join t1) (join t2)))`},
		{name: "MainVsSpawnedRace", races: 2, src: counterHeader + `
		  (define (child) unit (set-field! counter v 1))
		  (define (main) int64
		    (let ((t1 (spawn (child))))
		      (field counter v)))`},
		{name: "AccessesRecordLocksets", src: counterHeader + `
		  (define (f) unit
		    (with-lock a (with-lock b (set-field! counter v 1))))`,
			accesses: func(t *testing.T, acs []analysis.Access) {
				for _, ac := range acs {
					if ac.Write && strings.Join(ac.Lockset, ",") == "a,b" {
						return
					}
				}
				t.Fatalf("nested lockset not recorded: %+v", acs)
			}},
		{name: "RecursionTerminates", races: 1, src: counterHeader + `
		  (define (loop (n int64)) unit
		    (if (> n 0) (loop (- n 1)) (set-field! counter v 1)))
		  (define (main) unit
		    (let ((t1 (spawn (loop 5))) (t2 (spawn (loop 5))))
		      (join t1) (join t2)))`},
		// Per-field granularity: a field that is only ever read may be
		// shared freely even while a sibling field of the same global is
		// written under a lock.
		{name: "ReadOnlyFieldNextToLockedWrites", src: `
		  (defstruct pair (ro int64) (rw int64))
		  (define shared pair (make pair :ro 7 :rw 0))
		  (define (reader) int64 (field shared ro))
		  (define (writer) unit (with-lock m (set-field! shared rw 1)))
		  (define (main) unit
		    (let ((t1 (spawn (reader))) (t2 (spawn (reader))) (t3 (spawn (writer))))
		      (join t1) (join t2) (join t3)))`},
		// Atomic serialises only against other atomics: an atomic writer
		// and a lock-holding writer have disjoint locksets and still race.
		{name: "AtomicVsLockStillRaces", races: 1, src: counterHeader + `
		  (define (a) unit (atomic (set-field! counter v 1)))
		  (define (b) unit (with-lock m (set-field! counter v 2)))
		  (define (main) unit
		    (let ((t1 (spawn (a))) (t2 (spawn (b))))
		      (join t1) (join t2)))`},
		// Mixed atomic writers do not race with each other even without
		// locks.
		{name: "AtomicVsAtomicNoRace", src: counterHeader + `
		  (define (a) unit (atomic (set-field! counter v 1)))
		  (define (b) unit (atomic (set-field! counter v 2)))
		  (define (main) unit
		    (let ((t1 (spawn (a))) (t2 (spawn (b))))
		      (join t1) (join t2)))`},
		// Accesses in code never reachable from a spawn site cannot race: a
		// helper called only from main (single-threaded) and an uncalled
		// function both write unsynchronised, yet no pair is concurrent.
		{name: "NeverSpawnedAccessesNoRace", src: counterHeader + `
		  (define (helper) unit (set-field! counter v 1))
		  (define (deadcode) unit (set-field! counter v 2))
		  (define (main) unit
		    (helper)
		    (set-field! counter v 3))`,
			accesses: func(t *testing.T, acs []analysis.Access) {
				if len(acs) == 0 {
					t.Fatal("accesses should still be recorded for reporting")
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := runOpts(t, tc.src, analysis.Options{Enable: []string{"race"}})
			if got := len(rep.Findings); got != tc.races {
				t.Fatalf("races = %d, want %d: %v", got, tc.races, rep.Findings)
			}
			for _, f := range rep.Findings {
				if f.Code != analysis.CodeRace || !strings.Contains(f.Message, "potential race on counter.v") {
					t.Errorf("unexpected finding: %s %s", f.Code, f.Message)
				}
			}
			if tc.accesses != nil {
				tc.accesses(t, sharedAccesses(t, tc.src))
			}
		})
	}
}
