package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestRecorderOrdersByTime(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{Kind: RecvEvent, Rank: 1, Peer: 0, Time: 2.0, Words: 10})
	r.Record(Event{Kind: SendEvent, Rank: 0, Peer: 1, Time: 1.0, Words: 10})
	ev := r.Events()
	if len(ev) != 2 || ev[0].Time != 1.0 || ev[1].Time != 2.0 {
		t.Fatalf("events not time-sorted: %+v", ev)
	}
	if r.Len() != 2 {
		t.Fatal("len")
	}
}

func TestSummarizeCountsBothDirections(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{Kind: SendEvent, Rank: 0, Peer: 1, Words: 100, Time: 1})
	r.Record(Event{Kind: RecvEvent, Rank: 1, Peer: 0, Words: 100, Time: 2})
	r.Record(Event{Kind: RecvEvent, Rank: 1, Peer: 2, Words: 50, Time: 3})
	loads := r.Summarize(3)
	if loads[0].SentWords != 100 || loads[0].SentMsgs != 1 {
		t.Fatalf("rank0 %+v", loads[0])
	}
	if loads[1].RecvWords != 150 || loads[1].RecvMsgs != 2 || loads[1].LastDelivery != 3 {
		t.Fatalf("rank1 %+v", loads[1])
	}
	// Out-of-range ranks are ignored, not panics.
	r.Record(Event{Kind: SendEvent, Rank: 99, Peer: 0, Words: 1, Time: 4})
	_ = r.Summarize(3)
}

func TestWriters(t *testing.T) {
	r := NewRecorder()
	r.Record(Event{Kind: SendEvent, Rank: 0, Peer: 1, Tag: 42, Words: 7, Time: 1e-6})
	r.Record(Event{Kind: RecvEvent, Rank: 1, Peer: 0, Tag: 42, Words: 7, Time: 2e-6})
	var tl bytes.Buffer
	r.WriteTimeline(&tl, 0)
	if !strings.Contains(tl.String(), "tag 42") || !strings.Contains(tl.String(), "send") {
		t.Fatalf("timeline malformed:\n%s", tl.String())
	}
	// Limit truncates.
	var tl1 bytes.Buffer
	r.WriteTimeline(&tl1, 1)
	if strings.Count(tl1.String(), "\n") != 1 {
		t.Fatal("limit ignored")
	}
	var sum bytes.Buffer
	r.WriteSummary(&sum, 2)
	if !strings.Contains(sum.String(), "recv load") || !strings.Contains(sum.String(), "#") {
		t.Fatalf("summary malformed:\n%s", sum.String())
	}
	if Kind(0).String() != "send" || Kind(1).String() != "recv" {
		t.Fatal("kind strings")
	}
}
