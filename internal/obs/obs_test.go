package obs

import (
	"bytes"
	"strings"
	"testing"

	"graphsys/internal/cluster"
)

// goldenCluster builds a fully deterministic traced cluster: two workers,
// four cross messages, one local delivery, two rounds, simulated busy time.
func goldenCluster() *cluster.Cluster {
	c := cluster.New(2)
	net := c.Network()
	net.EnableTrace()
	net.Account(0, 1, 100)
	net.Account(0, 1, 28)
	net.Account(1, 0, 8)
	net.Account(0, 0, 5)
	net.AccountRound()
	net.Account(1, 0, 64)
	net.AccountRound()
	c.AddBusy(0, 1.5)
	c.AddBusy(1, 0.5)
	return c
}

func TestCollect(t *testing.T) {
	tr := Collect("golden", goldenCluster())
	if tr.Messages != 4 || tr.Bytes != 200 || tr.LocalMessages != 1 || tr.Rounds != 2 {
		t.Fatalf("totals wrong: %+v", tr)
	}
	if tr.LinkBytes[0][1] != 128 || tr.LinkBytes[1][0] != 72 {
		t.Fatalf("matrix wrong: %v", tr.LinkBytes)
	}
	if tr.WorkerSentMsgs[0] != 2 || tr.WorkerRecvMsgs[0] != 2 {
		t.Fatalf("per-worker counts wrong: sent=%v recv=%v", tr.WorkerSentMsgs, tr.WorkerRecvMsgs)
	}
	if len(tr.RoundSeries) != 2 || tr.RoundSeries[0].Bytes != 136 || tr.RoundSeries[1].Bytes != 64 {
		t.Fatalf("round series wrong: %+v", tr.RoundSeries)
	}
	s := tr.Skew
	if s.MaxBusySec != 1.5 || s.MeanBusySec != 1.0 || s.BusyImbalance != 1.5 {
		t.Fatalf("busy skew wrong: %+v", s)
	}
	if s.P50RoundBytes != 64 || s.P99RoundBytes != 136 || s.P50RoundMsgs != 1 || s.P99RoundMsgs != 3 {
		t.Fatalf("round percentiles wrong: %+v", s)
	}
}

const goldenJSON = `{
  "workload": "golden",
  "workers": 2,
  "messages": 4,
  "attempts": 4,
  "bytes": 200,
  "local_messages": 1,
  "rounds": 2,
  "weighted_cost": 200,
  "round_series": [
    {
      "round": 0,
      "messages": 3,
      "attempts": 3,
      "bytes": 136,
      "local_messages": 1,
      "weighted_cost": 136
    },
    {
      "round": 1,
      "messages": 1,
      "attempts": 1,
      "bytes": 64,
      "local_messages": 0,
      "weighted_cost": 64
    }
  ],
  "link_bytes": [
    [
      0,
      128
    ],
    [
      72,
      0
    ]
  ],
  "link_messages": [
    [
      0,
      2
    ],
    [
      2,
      0
    ]
  ],
  "worker_busy_sec": [
    1.5,
    0.5
  ],
  "worker_sent_msgs": [
    2,
    2
  ],
  "worker_recv_msgs": [
    2,
    2
  ],
  "skew": {
    "max_busy_sec": 1.5,
    "mean_busy_sec": 1,
    "busy_imbalance": 1.5,
    "p50_round_bytes": 64,
    "p99_round_bytes": 136,
    "p50_round_msgs": 1,
    "p99_round_msgs": 3
  }
}
`

// TestWriteJSONGolden pins the export format that cmd/graphbench -trace
// writes through WriteAll: downstream tooling parses these files, so a field
// rename or reorder must show up as a diff here.
func TestWriteJSONGolden(t *testing.T) {
	tr := Collect("golden", goldenCluster())
	var buf bytes.Buffer
	if err := WriteAll(&buf, []*Trace{tr}); err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"traces\": [\n    " +
		strings.ReplaceAll(strings.TrimSuffix(goldenJSON, "\n"), "\n", "\n    ") +
		"\n  ]\n}\n"
	if got := buf.String(); got != want {
		t.Fatalf("JSON drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteAll(t *testing.T) {
	tr := Collect("golden", goldenCluster())
	var buf bytes.Buffer
	if err := WriteAll(&buf, []*Trace{tr, tr}); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "{\n  \"traces\": [") || strings.Count(s, `"workload": "golden"`) != 2 {
		t.Fatalf("WriteAll document malformed:\n%s", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []int64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	cases := []struct {
		q    float64
		want int64
	}{{0.50, 5}, {0.99, 10}, {0.10, 1}, {1.0, 10}}
	for _, c := range cases {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%.2f) = %d, want %d", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestCollectRecoveryStats(t *testing.T) {
	c := cluster.New(2)
	fi := cluster.RunOptions{Trace: true, Faults: &cluster.FaultPlan{DropProb: 0.9, DropSeed: 3}}.Apply(c)
	for k := 0; k < 50; k++ {
		c.Network().Account(0, 1, 10)
	}
	fi.NoteCheckpoint(4096)
	fi.NoteRecovery(2, 2.5)
	tr := Collect("faulty", c)
	if tr.Recovery == nil {
		t.Fatal("recovery stats not collected")
	}
	r := tr.Recovery
	if r.Checkpoints != 1 || r.CheckpointBytes != 4096 || r.RecoveredRounds != 2 || r.RecoveryTime != 2.5 {
		t.Fatalf("engine-side recovery accounting wrong: %+v", r)
	}
	if r.DroppedMessages == 0 || r.RetryBytes == 0 {
		t.Fatalf("runtime-side retry accounting missing: %+v", r)
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, []*Trace{tr}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"recovery": {`) || !strings.Contains(buf.String(), `"checkpoint_bytes": 4096`) {
		t.Fatalf("recovery section missing from JSON export:\n%s", buf.String())
	}
	// fault-free runs must not grow a recovery section (golden compat)
	if plain := Collect("plain", cluster.New(2)); plain.Recovery != nil {
		t.Fatal("fault-free trace has recovery section")
	}
}

func TestFinishRespectsOptIn(t *testing.T) {
	c := cluster.New(2)
	if tr := Finish(cluster.RunOptions{}, "w", c); tr != nil {
		t.Fatal("Finish collected without opt-in")
	}
	opts := cluster.RunOptions{Trace: true}
	opts.Apply(c)
	tr := Finish(opts, "w", c)
	if tr == nil || tr.Workload != "w" {
		t.Fatal("Finish did not collect")
	}
}

func TestCollectUntraced(t *testing.T) {
	c := cluster.New(2)
	c.Network().Account(0, 1, 10)
	tr := Collect("plain", c)
	if tr.LinkBytes != nil || tr.RoundSeries != nil {
		t.Fatal("untraced collect must not fabricate matrix/series")
	}
	if tr.Bytes != 10 {
		t.Fatalf("bytes = %d", tr.Bytes)
	}
}
