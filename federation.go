package repro

// Federation surface of the public API: typed access to a root collector's
// peer status, so operators and tooling embedding this library can watch a
// federation tier (edges pushing histogram deltas into a root, see
// internal/federate and the ldpserver -push-to / -accept-federation flags)
// without hand-parsing the HTTP responses.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// FederationPeerEpoch is one absorbed-count high-water mark: how many
// histogram increments of one epoch the root has merged from the edge.
type FederationPeerEpoch struct {
	Epoch int
	N     uint64
}

// FederationPeerStream is the per-stream watermark block of one peer.
type FederationPeerStream struct {
	Stream string
	// N sums the absorbed increments across the retained epochs.
	N      uint64
	Epochs []FederationPeerEpoch
}

// FederationPeer is everything a root collector knows about one edge: the
// replay-detection sequence high-water mark (a restarted edge resumes
// against it without double counting) and the absorbed-increment watermarks
// per stream and epoch.
type FederationPeer struct {
	// Edge is the edge collector's stable identity (its -edge-id).
	Edge string
	// LastSeq is the last push sequence the root applied for this edge.
	LastSeq int64
	// LastPush is when that push arrived (zero if never).
	LastPush time.Time
	// Reports counts the histogram increments absorbed from this edge;
	// Dropped the increments whose epochs fell outside the root's window.
	Reports uint64
	Dropped uint64
	Streams []FederationPeerStream
}

// wire shapes of GET /federation/peers (internal/ldphttp.PeerInfo).
type wirePeerEpoch struct {
	Epoch int    `json:"epoch"`
	N     uint64 `json:"n"`
}

type wirePeerStream struct {
	Stream string          `json:"stream"`
	N      uint64          `json:"n"`
	Epochs []wirePeerEpoch `json:"epochs"`
}

type wirePeer struct {
	Edge     string           `json:"edge"`
	LastSeq  int64            `json:"last_seq"`
	LastPush string           `json:"last_push"`
	Reports  uint64           `json:"reports"`
	Dropped  uint64           `json:"dropped"`
	Streams  []wirePeerStream `json:"streams"`
}

// FederationPeers fetches a root collector's per-edge federation status from
// GET {baseURL}/federation/peers. The result is sorted by edge id (the
// server's order). An http.Client can be supplied for timeouts and
// transports; nil uses http.DefaultClient.
func FederationPeers(baseURL string, hc *http.Client) ([]FederationPeer, error) {
	body, err := opsGet(baseURL, "/federation/peers", hc)
	if err != nil {
		return nil, fmt.Errorf("repro: federation peers: %w", err)
	}
	var wire struct {
		Peers []wirePeer `json:"peers"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		return nil, fmt.Errorf("repro: federation peers: decode: %v", err)
	}
	out := make([]FederationPeer, 0, len(wire.Peers))
	for _, wp := range wire.Peers {
		p := FederationPeer{
			Edge:    wp.Edge,
			LastSeq: wp.LastSeq,
			Reports: wp.Reports,
			Dropped: wp.Dropped,
		}
		if wp.LastPush != "" {
			ts, err := time.Parse(time.RFC3339Nano, wp.LastPush)
			if err != nil {
				return nil, fmt.Errorf("repro: federation peers: peer %q last_push %q: %v",
					wp.Edge, wp.LastPush, err)
			}
			p.LastPush = ts
		}
		for _, ws := range wp.Streams {
			ps := FederationPeerStream{Stream: ws.Stream, N: ws.N}
			for _, we := range ws.Epochs {
				ps.Epochs = append(ps.Epochs, FederationPeerEpoch{Epoch: we.Epoch, N: we.N})
			}
			p.Streams = append(p.Streams, ps)
		}
		out = append(out, p)
	}
	return out, nil
}
