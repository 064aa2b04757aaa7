package obs

// Fork and adoption: recorder state crosses the checkpoint/fork boundary
// by deep copy, so a fork's trace starts with everything its parent had
// recorded up to the snapshot and then diverges on its own — exactly like
// the rest of the emulation. A forked recorder has no clock bound; the
// fork's engine binds its own in SetRecorder.

// Fork returns a deep copy of the recorder with no clock bound. Metric
// handles cached by the parent's devices keep pointing at the parent's
// metrics; forked devices re-register through the fork's recorder and get
// the copied handles. Nil-safe: a nil recorder forks to nil.
func (r *Recorder) Fork() *Recorder {
	if r == nil {
		return nil
	}
	// Attrs slices are recorded once and never mutated, so aliasing them
	// is safe; the containers themselves must not be shared.
	return &Recorder{
		spans:  append([]SpanData(nil), r.spans...),
		events: append([]EventData(nil), r.events...),
		reg:    r.reg.clone(),
	}
}

// Adopt moves src's contents into r, replacing whatever r held. The
// scenario engine uses this to hand a fork's recorder (created internally
// by Orchestrator.Fork) to the caller-supplied recorder, so the caller's
// handle sees the full trace. src must not be used afterwards. Nil-safe
// on both sides.
func (r *Recorder) Adopt(src *Recorder) {
	if r == nil || src == nil {
		return
	}
	now := r.now
	*r = *src
	if r.now == nil {
		r.now = now
	}
}
