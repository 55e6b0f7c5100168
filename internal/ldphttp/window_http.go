package ldphttp

// Windowed (epoch-rotated) collection on the wire: the Duration codec of
// epoch declarations and the windowing blocks of stream info and window
// answers. The rotation, the window estimate cache and its refresh are the
// engine's (package engine); loadEstimate serves window selectors.

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/engine"
)

// Duration is a time.Duration that marshals as a human-readable Go duration
// string ("1m30s") in JSON and unmarshals from either that syntax or integer
// nanoseconds, so curl users write {"epoch": "1m"} instead of 60000000000.
type Duration time.Duration

// MarshalJSON renders the Go duration syntax.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "1m30s" or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("ldphttp: bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err == nil {
		*d = Duration(n)
		return nil
	}
	return fmt.Errorf("ldphttp: bad duration %s (want a Go duration string or nanoseconds)", b)
}

// EpochRange is the resolved inclusive epoch range of a window answer.
type EpochRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// WindowInfo is the windowing block of a GET /v1/streams row.
type WindowInfo struct {
	// Epoch is the rotation period; Retain the sealed-epoch retention.
	Epoch  Duration `json:"epoch"`
	Retain int      `json:"retain"`
	// CurrentEpoch is the live epoch's index; OldestEpoch the lowest index
	// still addressable; SealedEpochs how many sealed epochs are retained.
	CurrentEpoch int `json:"current_epoch"`
	OldestEpoch  int `json:"oldest_epoch"`
	SealedEpochs int `json:"sealed_epochs"`
	// LiveN is the report count of the live epoch alone.
	LiveN int `json:"live_n"`
}

// windowInfo snapshots the epoch-rotation state, nil for plain streams.
func windowInfo(st *engine.Stream) *WindowInfo {
	cfg := st.Config()
	if !cfg.Windowed() {
		return nil
	}
	ring := st.Ring()
	cur, _ := ring.Current()
	return &WindowInfo{
		Epoch:        Duration(cfg.Epoch),
		Retain:       cfg.Retain,
		CurrentEpoch: cur,
		OldestEpoch:  ring.Oldest(),
		SealedEpochs: ring.SealedLen(),
		LiveN:        ring.LiveN(),
	}
}
