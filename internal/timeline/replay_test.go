package timeline

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// hookedMachine runs hook after every observation of the wrapped machine,
// so a test can check live state against a cold oracle at every tick
// without re-implementing the replay loop.
type hookedMachine struct {
	Machine
	hook func(tick int) error
}

func (h hookedMachine) Observe(tick int) ([]float64, error) {
	row, err := h.Machine.Observe(tick)
	if err != nil {
		return nil, err
	}
	return row, h.hook(tick)
}

// stubMachine consumes CN fail events and observes one column; its knobs
// make Apply or Observe fail, or observe a row of the wrong width.
type stubMachine struct {
	applyErr   error
	observeErr error
	width      int
}

func (m *stubMachine) Cols() []Col   { return []Col{{Name: "n", Prec: -1}} }
func (m *stubMachine) Kinds() []Kind { return []Kind{KindCNFail} }

func (m *stubMachine) Apply(ev Event) error {
	if ev.Kind != KindCNFail {
		return fmt.Errorf("stub machine cannot apply %s events", ev.Kind)
	}
	return m.applyErr
}

func (m *stubMachine) Observe(int) ([]float64, error) {
	if m.observeErr != nil {
		return nil, m.observeErr
	}
	return make([]float64, m.width), nil
}

// TestReplayErrorStrings pins the errors single-machine replay reports, so
// any change to their wording is a deliberate one. Single-machine replay is
// a one-part composition named "machine": tick errors name that part, and an
// event of a kind the machine does not declare is rejected before tick 0.
func TestReplayErrorStrings(t *testing.T) {
	boom := errors.New("boom")
	fail := Stream{Horizon: 3, Events: []Event{{At: 1, Kind: KindCNFail, Node: 0}}}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		s    Stream
		m    *stubMachine
		want string
	}{
		{"foreign kind", context.Background(),
			Stream{Horizon: 3, Events: []Event{{At: 1, Kind: KindRegulate, Name: "MX"}}},
			&stubMachine{width: 1},
			"timeline: event 0 (tick 1): no part consumes regulate events"},
		{"apply failure", context.Background(), fail,
			&stubMachine{width: 1, applyErr: boom},
			"timeline: tick 1: part machine: apply fail: boom"},
		{"observe failure", context.Background(), fail,
			&stubMachine{width: 1, observeErr: boom},
			"timeline: tick 0: part machine: observe: boom"},
		{"row width", context.Background(), fail,
			&stubMachine{width: 2},
			"timeline: tick 0: part machine: observation has 2 values, want 1"},
		{"cancelled", cancelled, fail,
			&stubMachine{width: 1},
			"timeline: tick 0: context canceled"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			series, err := ReplayCtx(c.ctx, c.s, c.m)
			if err == nil {
				t.Fatalf("replay succeeded with %d rows, want %q", len(series.Rows), c.want)
			}
			if err.Error() != c.want {
				t.Fatalf("error = %q\nwant    %q", err, c.want)
			}
		})
	}
	if _, err := ReplayCtx(cancelled, fail, &stubMachine{width: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled replay error %v does not wrap context.Canceled", err)
	}
}

func TestReplayHookSeesEveryTick(t *testing.T) {
	var ticks []int
	m := hookedMachine{&stubMachine{width: 1}, func(tick int) error {
		ticks = append(ticks, tick)
		return nil
	}}
	series, err := ReplayCtx(context.Background(), Stream{Horizon: 4}, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Rows) != 4 || len(ticks) != 4 || ticks[3] != 3 {
		t.Fatalf("rows %d, hook ticks %v; want 4 rows and ticks 0..3", len(series.Rows), ticks)
	}
}
