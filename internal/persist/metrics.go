package persist

import "repro/internal/obs"

// RegisterMetrics binds the store's durability state into reg as computed
// series evaluated at scrape time from the same mutex-guarded bookkeeping
// Stats snapshots, so the registry and Stats cannot disagree. The WAL record/byte series are gauges, not counters: a checkpoint
// truncates the live log, and a failed append rolls the count back.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("beas_persist_seq",
		"Last applied mutation sequence number.",
		func() float64 { return float64(s.Stats().Seq) })
	reg.GaugeFunc("beas_persist_wal_records",
		"Live WAL records since the last checkpoint.",
		func() float64 { return float64(s.Stats().WALRecords) })
	reg.GaugeFunc("beas_persist_wal_bytes",
		"Live WAL bytes since the last checkpoint.",
		func() float64 { return float64(s.Stats().WALBytes) })
	reg.GaugeFunc("beas_persist_replayed",
		"WAL records replayed at the last open.",
		func() float64 { return float64(s.Stats().Replayed) })
	reg.GaugeFunc("beas_persist_skipped_replay",
		"Stale WAL records skipped at the last open.",
		func() float64 { return float64(s.Stats().SkippedReplay) })
	reg.GaugeFunc("beas_persist_snapshots",
		"Snapshot files written since open.",
		func() float64 { return float64(s.Stats().Snapshots) })
	reg.GaugeFunc("beas_persist_checkpoints",
		"Checkpoints completed since open.",
		func() float64 { return float64(s.Stats().Checkpoints) })
	reg.GaugeFunc("beas_persist_checkpoint_failures",
		"Consecutive checkpoint failures (0 when healthy).",
		func() float64 { return float64(s.Stats().CheckpointFailures) })
	reg.GaugeFunc("beas_persist_circuit_open",
		"Whether automatic checkpoints are suspended (0/1).",
		func() float64 { return boolGauge(s.Stats().CircuitOpen) })
	reg.GaugeFunc("beas_persist_wal_degraded",
		"Whether the WAL refused an append and mutations are rejected (0/1).",
		func() float64 { return boolGauge(s.Stats().WALDegraded) })
	reg.GaugeFunc("beas_persist_warm_start",
		"Whether the store opened from an existing snapshot (0/1).",
		func() float64 { return boolGauge(s.Stats().WarmStart) })
	for _, state := range []string{StateHealthy, StateRetrying, StateCircuitOpen} {
		reg.GaugeFuncVec("beas_persist_checkpoint_state",
			"Checkpoint circuit state (1 for the current state, 0 for the others).", "state", state,
			func() float64 { return boolGauge(s.Stats().CheckpointState == state) })
	}
	reg.GaugeFunc("beas_persist_last_checkpoint_unix",
		"Unix time of the last successful checkpoint (0 before the first).",
		func() float64 {
			t := s.Stats().LastCheckpoint
			if t.IsZero() {
				return 0
			}
			return float64(t.Unix())
		})
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
