package types

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRouteTargetsDedupAndSkipNone(t *testing.T) {
	cases := []struct {
		route Route
		want  []ClusterID
	}{
		{Route{Dst: 1, DstBackup: 2, SrcBackup: 3}, []ClusterID{1, 2, 3}},
		{Route{Dst: 1, DstBackup: 1, SrcBackup: 1}, []ClusterID{1}},
		{Route{Dst: 1, DstBackup: NoCluster, SrcBackup: 2}, []ClusterID{1, 2}},
		{Route{Dst: NoCluster, DstBackup: NoCluster, SrcBackup: NoCluster}, []ClusterID{}},
		{Route{Dst: 0, DstBackup: 2, SrcBackup: 0}, []ClusterID{0, 2}},
	}
	for _, c := range cases {
		got := c.route.Targets()
		if len(got) != len(c.want) {
			t.Errorf("Targets(%+v) = %v, want %v", c.route, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Targets(%+v)[%d] = %v, want %v", c.route, i, got[i], c.want[i])
			}
		}
	}
}

func TestQuickTargetsNeverDuplicatesOrNone(t *testing.T) {
	f := func(a, b, c int8) bool {
		r := Route{Dst: ClusterID(a), DstBackup: ClusterID(b), SrcBackup: ClusterID(c)}
		got := r.Targets()
		seen := map[ClusterID]bool{}
		for _, id := range got {
			if id == NoCluster || seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMessageClone(t *testing.T) {
	m := &Message{Kind: KindData, Channel: 3, Src: 1, Dst: 2, Seq: 9, Payload: []byte{1, 2}}
	c := m.Clone()
	c.Payload[0] = 99
	c.Seq = 100
	if m.Payload[0] != 1 || m.Seq != 9 {
		t.Fatal("Clone shares state")
	}
	var nilPayload Message
	if nilPayload.Clone().Payload != nil {
		t.Fatal("nil payload clone allocated")
	}
}

func TestStringers(t *testing.T) {
	if NoCluster.String() != "cluster(none)" || ClusterID(3).String() != "cluster3" {
		t.Error("ClusterID strings")
	}
	if PID(7).String() != "pid7" || ChannelID(9).String() != "ch9" {
		t.Error("identifier strings")
	}
	reserved := map[Kind]bool{
		KindServerSync + 1: true, // the retired kernel report's slot
		KindDecision + 1:   true, // the retired checkpoint manifest's slot
	}
	for k := KindInvalid; k <= KindMark; k++ {
		if !reserved[k] && strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d unnamed", k)
		}
	}
	if KindMark != 20 {
		t.Errorf("KindMark is wire number %d, want 20", uint8(KindMark))
	}
	for _, m := range []BackupMode{Quarterback, Halfback, Fullback} {
		if strings.HasPrefix(m.String(), "BackupMode(") {
			t.Errorf("mode %d unnamed", m)
		}
	}
	for _, s := range []Signal{SigNone, SigInt, SigAlarm, SigTerm, SigUser} {
		if strings.HasPrefix(s.String(), "Signal(") {
			t.Errorf("signal %d unnamed", s)
		}
	}
	m := &Message{Kind: KindSync, Src: 1, Dst: 2, Channel: 3, Seq: 4, Payload: []byte{0}}
	if got := m.String(); !strings.Contains(got, "sync") || !strings.Contains(got, "pid1") {
		t.Errorf("message string = %q", got)
	}
}
