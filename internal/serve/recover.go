package serve

import (
	"fmt"
)

// recoveredState is the disk-side recovery plan for a state directory:
// which snapshot generation to restore (nil env = start fresh), which
// WAL records to replay past its watermark, and where appending resumes.
type recoveredState struct {
	env *Envelope // newest verifiable generation; nil → fresh start
	gen int       // its generation number; -1 when env is nil

	records []walRecord // replayable records, Seq > watermark, continuity-checked
	lastSeq uint64      // last sequence on disk (or the watermark if higher)

	appendSeg int   // segment to reopen for appending
	appendLen int64 // good-prefix length to truncate that segment to
	newSeg    bool  // the append segment does not exist yet (as at genesis)

	fallbacks int // generations skipped as corrupt/unreadable
}

// recoverState scans a state directory and plans recovery
// (DESIGN.md §14): newest verifiable generation first, then an
// idempotent, order-checked walk over every WAL segment.
//
// Damage tolerance is asymmetric by design. A torn tail on the final
// segment is the expected signature of a crash mid-append — it is
// counted, truncated away, and replay proceeds. A torn tail or a
// sequence gap anywhere else means records that were once durable are
// gone (the rotation protocol never leaves a non-final segment without
// its closing marker), so recovery refuses with "continuity broken"
// rather than silently dropping acknowledged reports. Duplicated or
// reordered sequence numbers are rejected the same way.
func recoverState(dir string) (*recoveredState, error) {
	gens, segs, err := listStateDir(dir)
	if err != nil {
		return nil, err
	}
	rs := &recoveredState{gen: -1}
	if len(gens) == 0 && len(segs) == 0 {
		rs.newSeg = true // genesis: the directory holds no state at all
		return rs, nil
	}

	// Newest verifiable generation wins; every corrupt one is counted and
	// skipped. Falling past all generations is only safe when segment 0
	// still exists — replay can then rebuild from genesis.
	for i := len(gens) - 1; i >= 0; i-- {
		env, err := loadGeneration(dir, gens[i])
		if err != nil {
			mSnapCorrupt.Inc()
			rs.fallbacks++
			continue
		}
		rs.env, rs.gen = env, gens[i]
		break
	}
	if rs.fallbacks > 0 {
		mSnapFallbacks.Inc()
	}
	var watermark uint64
	if rs.env != nil {
		watermark = rs.env.WalSeq
	} else if len(segs) == 0 || segs[0] != 0 {
		return nil, fmt.Errorf("serve: no verifiable snapshot generation in %s and the wal does not reach genesis", dir)
	}

	// Walk every segment ascending: global sequence continuity across
	// rotations, replay past the watermark.
	var prev uint64
	first := true
	for i, s := range segs {
		recs, goodLen, torn, err := readWALSegment(segPath(dir, s))
		if err != nil {
			return nil, err
		}
		final := i == len(segs)-1
		if torn {
			if !final {
				return nil, fmt.Errorf("serve: wal segment %06d has a torn tail but is not the final segment: continuity broken", s)
			}
			mWALTornTail.Inc()
		}
		for _, r := range recs {
			switch {
			case first:
				prev, first = r.Seq, false
			case r.Seq != prev+1:
				return nil, fmt.Errorf("serve: wal segment %06d: sequence %d after %d (duplicate, gap or reordering): continuity broken", s, r.Seq, prev)
			default:
				prev = r.Seq
			}
			if r.Seq > watermark {
				rs.records = append(rs.records, r)
			}
		}
		if final {
			rs.appendSeg, rs.appendLen = s, goodLen
		}
	}
	if len(segs) == 0 {
		// A generation exists but no segment does: appending starts a
		// fresh segment named after the generation.
		rs.appendSeg, rs.appendLen, rs.newSeg = rs.gen, 0, true
	}
	if len(rs.records) > 0 && rs.records[0].Seq != watermark+1 {
		return nil, fmt.Errorf("serve: wal starts at sequence %d but the snapshot watermark is %d: records past the snapshot were pruned", rs.records[0].Seq, watermark)
	}
	rs.lastSeq = watermark
	if !first && prev > rs.lastSeq {
		rs.lastSeq = prev
	}
	return rs, nil
}
