// Package trace records per-message events from the cluster runtime and
// renders them as a textual timeline or a per-rank activity summary —
// the tooling used while developing the communication schedules (e.g.
// visually confirming that destination rotation removes the receive
// hot-spot of the naive pattern, Figure 2).
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Kind distinguishes event types.
type Kind int

const (
	// SendEvent is the injection of a message at its source.
	SendEvent Kind = iota
	// RecvEvent is the delivery completion at the destination.
	RecvEvent
)

func (k Kind) String() string {
	if k == SendEvent {
		return "send"
	}
	return "recv"
}

// Event is one recorded message endpoint.
type Event struct {
	Kind  Kind
	Rank  int // the rank where the event happened
	Peer  int // the other endpoint
	Tag   int
	Words int
	Time  float64 // simulated seconds (departure for sends, delivery for recvs)
}

// Recorder collects events from all ranks. It is safe for concurrent
// use by the worker goroutines.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one event.
func (r *Recorder) Record(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a time-sorted copy of everything recorded.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	out := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool { return out[a].Time < out[b].Time })
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// WriteTimeline prints the sorted events, one per line, up to limit
// (0 = all).
func (r *Recorder) WriteTimeline(w io.Writer, limit int) {
	events := r.Events()
	if limit > 0 && len(events) > limit {
		events = events[:limit]
	}
	for _, e := range events {
		arrow := "→"
		if e.Kind == RecvEvent {
			arrow = "←"
		}
		fmt.Fprintf(w, "%12.3fµs  rank %2d %s %2d  tag %-8d %6d words  (%s)\n",
			e.Time*1e6, e.Rank, arrow, e.Peer, e.Tag, e.Words, e.Kind)
	}
}

// RankLoad summarizes one rank's traffic.
type RankLoad struct {
	Rank                 int
	SentMsgs, RecvMsgs   int
	SentWords, RecvWords int
	LastDelivery         float64
}

// Summarize aggregates the recording per rank; the receive-side word
// counts expose endpoint hot-spots directly.
func (r *Recorder) Summarize(p int) []RankLoad {
	loads := make([]RankLoad, p)
	for i := range loads {
		loads[i].Rank = i
	}
	for _, e := range r.Events() {
		if e.Rank < 0 || e.Rank >= p {
			continue
		}
		l := &loads[e.Rank]
		switch e.Kind {
		case SendEvent:
			l.SentMsgs++
			l.SentWords += e.Words
		case RecvEvent:
			l.RecvMsgs++
			l.RecvWords += e.Words
			if e.Time > l.LastDelivery {
				l.LastDelivery = e.Time
			}
		}
	}
	return loads
}

// WriteSummary prints per-rank loads with a bar proportional to received
// words — a visual hot-spot detector.
func (r *Recorder) WriteSummary(w io.Writer, p int) {
	loads := r.Summarize(p)
	maxWords := 1
	for _, l := range loads {
		if l.RecvWords > maxWords {
			maxWords = l.RecvWords
		}
	}
	fmt.Fprintf(w, "%-6s %-10s %-10s %-12s %-12s %s\n",
		"rank", "sent msgs", "recv msgs", "sent words", "recv words", "recv load")
	for _, l := range loads {
		bar := ""
		for i := 0; i < 30*l.RecvWords/maxWords; i++ {
			bar += "#"
		}
		fmt.Fprintf(w, "%-6d %-10d %-10d %-12d %-12d %s\n",
			l.Rank, l.SentMsgs, l.RecvMsgs, l.SentWords, l.RecvWords, bar)
	}
}
