package sim

import "subtrav/internal/obs"

// SetTrace appends one span per finished task to ring (nil disables),
// with the fields the live runtime fills in the same schema: identity,
// unit, submit (arrival), schedule, start and end times in virtual
// nanoseconds, wait and execution durations, the unit's buffer charge
// and the traversal's push/pull counters. A batch member carries the
// whole batch's charge, as in the live runtime. The simulator fills no
// scheduling detail. Call before Run; Reset keeps the wiring.
func (c *Cluster) SetTrace(ring *obs.Ring) { c.ring = ring }

// span builds member i's span of the unit's current batch, completed
// at now.
func (c *Cluster) span(u *unit, ex *execState, i int, now int64) obs.Span {
	t := ex.members[i].task
	hits, misses, bytesRead := u.exec.Charged()
	dir := u.exec.DirStats(i)
	return obs.Span{
		QueryID:       t.ID,
		Op:            t.Query.Op.String(),
		Start:         int32(t.Query.Start),
		Unit:          u.id,
		SubmitNanos:   t.Arrival,
		ScheduleNanos: ex.members[i].scheduled,
		StartNanos:    ex.start,
		EndNanos:      now,
		CacheHits:     hits,
		CacheMisses:   misses,
		BytesRead:     bytesRead,
		PushWaves:     dir.PushWaves,
		PullWaves:     dir.PullWaves,
		DirSwitches:   dir.Switches,
		WaitNanos:     ex.start - t.Arrival,
		ExecNanos:     now - ex.start,
		Outcome:       obs.OutcomeCompleted,
	}
}
