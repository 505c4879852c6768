package httpkit

import (
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// quarantine drives host to quarantine on r: repeated tripping failures
// with probe cycles until the breaker has opened QuarantineAfter times.
func quarantine(t *testing.T, r *HealthRegistry, now *time.Time, host string, opens int) {
	t.Helper()
	for i := 0; i < opens; i++ {
		for j := 0; j < r.policy.FailureThreshold; j++ {
			r.ReportFailure(host, KindDial)
		}
		if h := r.Health(host); h.Opens <= i {
			t.Fatalf("breaker did not open on round %d: %+v", i, h)
		}
		if i+1 < opens {
			// Age past the cooldown and burn the half-open probe so the
			// next failure reopens.
			*now = now.Add(r.policy.Cooldown + time.Second)
			if err := r.Allow(host); err != nil {
				t.Fatalf("probe %d refused: %v", i, err)
			}
		}
	}
}

func TestHealthExportImportRoundTrip(t *testing.T) {
	policy := BreakerPolicy{FailureThreshold: 2, Cooldown: time.Minute, QuarantineAfter: 2, Probation: time.Hour}
	r, now := testRegistry(policy)
	quarantine(t, r, now, "dead.test", 2)
	r.ReportFailure("busy.test", Kind429)
	r.ReportSuccess("busy.test")
	r.ReportSuccess("ok.test")

	// Persist through JSON, the same wire format checkpoints use.
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap []HostHealth
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}

	r2, _ := testRegistry(policy)
	r2.now = r.now // same frozen clock, so ages compare equal
	r2.ImportHealth(snap)

	// Compare the JSON forms: time.Time round-trips to UTC wall-clock,
	// so struct equality would trip on location metadata, not state.
	got, err := json.Marshal(r2.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(raw) {
		t.Fatalf("imported registry diverged:\n got %s\nwant %s", got, raw)
	}
	if !r2.Health("dead.test").Quarantined || r2.Health("ok.test").Quarantined {
		t.Fatalf("quarantined after import: %+v", r2.Snapshot())
	}
	// The imported open breaker still refuses inside the cooldown…
	if err := r2.Allow("dead.test"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("imported breaker admitted during cooldown: %v", err)
	}
	// …and admits a half-open probe once the cooldown (anchored at the
	// persisted last failure) has passed.
	*now = now.Add(policy.Cooldown + time.Second)
	if err := r2.Allow("dead.test"); err != nil {
		t.Fatalf("imported breaker refused post-cooldown probe: %v", err)
	}
	if err := r2.Allow("ok.test"); err != nil {
		t.Fatalf("healthy import refused: %v", err)
	}
}

func TestQuarantineProbationDecay(t *testing.T) {
	policy := BreakerPolicy{FailureThreshold: 1, Cooldown: time.Minute, QuarantineAfter: 1, Probation: 10 * time.Minute}
	r, now := testRegistry(policy)
	// health reads the host's Health, whose verdicts Verdict must give
	// too.
	health := func() HostHealth {
		t.Helper()
		h := r.Health("gone.test")
		if q, p := r.Verdict("gone.test"); q != h.Quarantined || p != h.Probation {
			t.Fatalf("Verdict = %v, %v; Health has %v, %v", q, p, h.Quarantined, h.Probation)
		}
		return h
	}
	if q, p := r.Verdict("never.test"); q || p {
		t.Fatalf("host never seen: Verdict = %v, %v", q, p)
	}
	r.ReportFailure("gone.test", KindDial)

	h := health()
	if !h.Quarantined || h.Probation {
		t.Fatalf("fresh failure: quarantined=%v probation=%v, want true/false", h.Quarantined, h.Probation)
	}
	if snap := r.Snapshot(); len(snap) != 1 || !snap[0].Quarantined {
		t.Fatalf("snapshot = %+v, want the host quarantined", snap)
	}

	// Past the probation age the host decays to probe-able.
	*now = now.Add(policy.Probation + time.Second)
	h = health()
	if h.Quarantined || !h.Probation {
		t.Fatalf("aged failure: quarantined=%v probation=%v, want false/true", h.Quarantined, h.Probation)
	}
	if snap := r.Snapshot(); len(snap) != 1 || snap[0].Quarantined {
		t.Fatalf("aged host still snapshotted quarantined: %+v", snap)
	}

	// A successful probe clears the quarantine history entirely; the
	// cumulative Opens counter survives for reporting.
	if err := r.Allow("gone.test"); err != nil {
		t.Fatalf("post-probation probe refused: %v", err)
	}
	r.ReportSuccess("gone.test")
	h = health()
	if h.Quarantined || h.Probation {
		t.Fatalf("recovered host still flagged: %+v", h)
	}
	if h.Opens != 1 || h.QuarantineOpens != 0 {
		t.Fatalf("opens=%d quarantineOpens=%d, want 1/0", h.Opens, h.QuarantineOpens)
	}

	// Relapse re-quarantines from a clean slate: one more open trips the
	// threshold again.
	r.ReportFailure("gone.test", KindDial)
	if h = health(); !h.Quarantined {
		t.Fatalf("relapsed host not re-quarantined: %+v", h)
	}
}
