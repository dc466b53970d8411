package gnn_test

import (
	"testing"

	"graphsys/internal/gnn"
	"graphsys/internal/gnndist"
)

// TestMinibatchTraining: serial sampled GCN training (one worker, twelve
// 32-seed minibatches, about four epochs of the 300-vertex task's training
// seeds) reaches 0.8 test accuracy.
func TestMinibatchTraining(t *testing.T) {
	task := gnn.SyntheticCommunityTask(300, 3, 2, 0.3, 4)
	res, err := gnndist.TrainSync(task, gnndist.TrainerConfig{Workers: 1, Kind: gnn.GCN,
		TimeBudget: 12, BatchSize: 32, Fanouts: []int{8, 8}, LR: 0.02, Hidden: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TestAcc < 0.8 {
		t.Fatalf("minibatch GCN accuracy %.3f < 0.8", res.TestAcc)
	}
	if res.SyncRounds == 0 {
		t.Fatal("no rounds recorded")
	}
}
