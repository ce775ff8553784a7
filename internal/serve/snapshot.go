package serve

import (
	"encoding/json"
	"fmt"
	"hash/crc32"

	"edgecache/internal/online"
)

// SnapshotFormatVersion is the on-disk envelope format this build
// writes. Version 2 added the WalSeq watermark and the Checksum field;
// version-1 envelopes (pre-durability) are still read, without checksum
// verification. Bump on any incompatible change to Envelope or to
// online.StreamSnapshot; recovery rejects foreign versions loudly instead
// of mis-restoring.
const SnapshotFormatVersion = 2

// Envelope is the on-disk snapshot: the controller state plus the
// realised demand rows of the closed slots (the stream snapshot carries
// no demand of its own — the estimator and the restored windows
// recompute from this prefix). Serialised as JSON; float64 values
// round-trip exactly through Go's shortest-representation encoding.
//
// An envelope always describes a slot boundary: Rows covers exactly the
// closed slots and Ingested counts exactly the reports folded into them.
// Open-slot reports are never inside an envelope — they live in the WAL
// past the watermark.
type Envelope struct {
	FormatVersion int    `json:"formatVersion"`
	Algorithm     string `json:"algorithm"`
	// Slot is the open slot at snapshot time; Rows covers [0, Slot).
	Slot     int   `json:"slot"`
	Ingested int64 `json:"ingested"`
	// WalSeq is the durability watermark: the sequence number of the last
	// WAL close marker whose effects this envelope captures. Recovery
	// replays records with Seq > WalSeq. Zero at genesis and for a
	// controller without a state directory.
	WalSeq uint64 `json:"walSeq,omitempty"`
	// Checksum is CRC32C over the envelope's canonical JSON with this
	// field zeroed; a bit flip anywhere in the file fails verification and
	// recovery falls back to the previous generation.
	Checksum uint32 `json:"checksum,omitempty"`
	// Rows[t][n] is the realised flat (class, content) rate row of slot
	// t at SBS n.
	Rows       [][][]float64          `json:"rows"`
	Controller *online.StreamSnapshot `json:"controller"`
}

// encodeSnapshot marshals env with its Checksum computed over the
// canonical (checksum-zeroed) encoding. The input is not mutated.
func encodeSnapshot(env *Envelope) ([]byte, error) {
	e := *env
	e.Checksum = 0
	canonical, err := json.Marshal(&e)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal snapshot: %w", err)
	}
	e.Checksum = crc32.Checksum(canonical, castagnoli)
	data, err := json.Marshal(&e)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal snapshot: %w", err)
	}
	return data, nil
}

// decodeSnapshot parses and verifies an envelope: format version gate,
// checksum (format ≥ 2 — verified by re-marshalling the decoded
// envelope with a zeroed checksum, which reproduces the writer's
// canonical bytes because encoding/json is deterministic), and the
// presence of the controller block. Arbitrary or damaged bytes return
// an error; they never panic.
func decodeSnapshot(data []byte) (*Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("serve: parse snapshot: %w", err)
	}
	switch env.FormatVersion {
	case 1:
		// Pre-durability envelope: no checksum to verify.
	case SnapshotFormatVersion:
		sum := env.Checksum
		e := env
		e.Checksum = 0
		canonical, err := json.Marshal(&e)
		if err != nil {
			return nil, fmt.Errorf("serve: re-marshal snapshot: %w", err)
		}
		if got := crc32.Checksum(canonical, castagnoli); got != sum {
			return nil, fmt.Errorf("serve: snapshot checksum mismatch: stored %08x, computed %08x", sum, got)
		}
	default:
		return nil, fmt.Errorf("serve: snapshot has format version %d, this build reads %d",
			env.FormatVersion, SnapshotFormatVersion)
	}
	if env.Controller == nil {
		return nil, fmt.Errorf("serve: snapshot carries no controller state")
	}
	return &env, nil
}
