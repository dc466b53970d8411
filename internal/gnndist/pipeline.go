package gnndist

// Pipeline scheduling (ByteGNN's two-level scheduling, BGL's factored
// executors, Dorylus' serverless pipeline): a GNN training step is a chain of
// heterogeneous stages — subgraph sampling, feature fetching, model compute —
// and running stage s of batch b concurrently with stage s+1 of batch b-1
// hides the latency of all but the bottleneck stage.

// StageTimes[s][b] is the duration of stage s for batch b (arbitrary units).
type StageTimes [][]float64

// SequentialMakespan runs every stage of every batch back to back (the
// unpipelined executor).
func SequentialMakespan(t StageTimes) float64 {
	var total float64
	if len(t) == 0 {
		return 0
	}
	for b := 0; b < len(t[0]); b++ {
		for s := 0; s < len(t); s++ {
			total += t[s][b]
		}
	}
	return total
}

// PipelinedMakespan computes the makespan when each stage is a dedicated
// executor and batch b can enter stage s as soon as both the batch has
// finished stage s-1 and the executor has finished batch b-1:
// finish[s][b] = max(finish[s-1][b], finish[s][b-1]) + t[s][b].
func PipelinedMakespan(t StageTimes) float64 {
	if len(t) == 0 || len(t[0]) == 0 {
		return 0
	}
	stages, batches := len(t), len(t[0])
	finish := make([][]float64, stages)
	for s := range finish {
		finish[s] = make([]float64, batches)
	}
	for b := 0; b < batches; b++ {
		for s := 0; s < stages; s++ {
			var ready float64
			if s > 0 {
				ready = finish[s-1][b]
			}
			if b > 0 && finish[s][b-1] > ready {
				ready = finish[s][b-1]
			}
			finish[s][b] = ready + t[s][b]
		}
	}
	return finish[stages-1][batches-1]
}
