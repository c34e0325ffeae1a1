package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"chaos:rate=0.15,kinds=err|panic|stall,seed=7,stall=100ms",
		"chaos:rate=1,kinds=err,seed=-3,stall=1s",
		"chaos:rate=0,kinds=panic|stall,seed=0,stall=2m0s",
	}
	for _, spec := range cases {
		inj, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if got := inj.String(); got != spec {
			t.Errorf("Parse(%q).String() = %q", spec, got)
		}
		again, err := Parse(inj.String())
		if err != nil || again.String() != inj.String() {
			t.Errorf("round-trip of %q failed: %v", spec, err)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	for _, spec := range []string{"chaos", "CHAOS", " chaos :rate=0.1"} {
		inj, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if inj.Rate() != 0.1 || len(inj.kinds) != 3 || inj.seed != 1 || inj.stall != DefaultStall {
			t.Errorf("Parse(%q) defaults wrong: %+v", spec, inj)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"havoc:rate=0.1",       // wrong name
		"chaos:rate=2",         // rate out of range
		"chaos:rate=-0.1",      // negative rate
		"chaos:rate=x",         // non-numeric rate
		"chaos:kinds=err|fire", // unknown kind
		"chaos:kinds=err|err",  // duplicate kind
		"chaos:seed=x",         // non-integer seed
		"chaos:stall=-1s",      // negative stall
		"chaos:stall=soon",     // non-duration stall
		"chaos:verbosity=11",   // unknown parameter
		"chaos:rate",           // not key=value
		"chaos:rate=",          // empty value
	}
	for _, spec := range cases {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

// TestDecideDeterministic: the schedule is a pure function of
// (seed, site, id, attempt) — equal seeds agree everywhere, and distinct
// seeds or attempts disagree somewhere.
func TestDecideDeterministic(t *testing.T) {
	a := New(0.5, nil, 7)
	b := New(0.5, nil, 7)
	c := New(0.5, nil, 8)
	sameAsC, attemptVaries := true, false
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("spec-%d", i)
		if a.Decide(SiteRun, id, 1) != b.Decide(SiteRun, id, 1) {
			t.Fatalf("equal seeds disagree on %s", id)
		}
		if a.Decide(SiteRun, id, 1) != c.Decide(SiteRun, id, 1) {
			sameAsC = false
		}
		if a.Decide(SiteRun, id, 1) != a.Decide(SiteRun, id, 2) {
			attemptVaries = true
		}
	}
	if sameAsC {
		t.Error("seeds 7 and 8 produce identical schedules (suspicious)")
	}
	if !attemptVaries {
		t.Error("attempt number never changes the verdict (retries could never converge)")
	}
}

// TestDecideRate: the empirical injection frequency tracks the configured
// rate, and only configured kinds are drawn.
func TestDecideRate(t *testing.T) {
	inj := New(0.2, []Kind{Err, Stall}, 3)
	const n = 5000
	fired := 0
	for i := 0; i < n; i++ {
		switch inj.Decide(SiteRun, fmt.Sprintf("id-%d", i), 1) {
		case None:
		case Err, Stall:
			fired++
		case Panic:
			t.Fatal("drew a kind outside the configured mix")
		}
	}
	if got := float64(fired) / n; math.Abs(got-0.2) > 0.03 {
		t.Errorf("empirical rate %.3f, want ~0.2", got)
	}
}

func TestDecideEdges(t *testing.T) {
	if k := New(0, nil, 1).Decide(SiteRun, "x", 1); k != None {
		t.Errorf("rate 0 injected %v", k)
	}
	var nilInj *Injector
	if k := nilInj.Decide(SiteRun, "x", 1); k != None {
		t.Errorf("nil injector injected %v", k)
	}
	always := New(1, []Kind{Err}, 1)
	for i := 0; i < 50; i++ {
		if k := always.Decide(SiteRun, fmt.Sprintf("id-%d", i), 1); k != Err {
			t.Fatalf("rate 1 skipped injection (%v)", k)
		}
	}
}

func TestInjectErr(t *testing.T) {
	inj := New(1, []Kind{Err}, 1)
	err := inj.Inject(context.Background(), SiteRun, "spec", 1)
	if !IsInjected(err) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !strings.Contains(err.Error(), "spec") || !strings.Contains(err.Error(), SiteRun) {
		t.Errorf("error %q does not address the injection point", err)
	}
}

func TestInjectPanic(t *testing.T) {
	inj := New(1, []Kind{Panic}, 1)
	defer func() {
		v := recover()
		p, ok := v.(InjectedPanic)
		if !ok {
			t.Fatalf("recovered %v (%T), want InjectedPanic", v, v)
		}
		if p.Site != SiteBuild || p.ID != "group" || p.Attempt != 2 {
			t.Errorf("panic value %+v does not address the injection point", p)
		}
		if !strings.Contains(fmt.Sprintf("%v", v), "injected panic") {
			t.Errorf("panic value renders as %v", v)
		}
	}()
	inj.Inject(context.Background(), SiteBuild, "group", 2)
	t.Fatal("Inject did not panic")
}

// TestInjectStall: a stall returns the context error once the deadline
// fires, and an injected error once the stall bound elapses without one.
func TestInjectStall(t *testing.T) {
	inj, err := Parse("chaos:rate=1,kinds=stall,seed=1,stall=50ms")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := inj.Inject(ctx, SiteRun, "spec", 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline-bounded stall returned %v, want DeadlineExceeded", err)
	}
	start := time.Now()
	if err := inj.Inject(context.Background(), SiteRun, "spec", 1); !IsInjected(err) {
		t.Errorf("unbounded stall returned %v, want ErrInjected", err)
	} else if time.Since(start) < 50*time.Millisecond {
		t.Error("stall returned before its bound elapsed")
	}
}

func TestInjectNone(t *testing.T) {
	inj := New(0, nil, 1)
	if err := inj.Inject(context.Background(), SiteRun, "spec", 1); err != nil {
		t.Fatalf("rate-0 Inject returned %v", err)
	}
}
