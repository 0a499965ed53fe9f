// Package dist implements distributed scatter-gather execution: a
// compact shard-service wire protocol, the node daemon's serving loop
// (cmd/msshard wraps it), and the coordinator the DB facade routes
// queries through when a topology is configured.
//
// The design ships work, not masks: every node opens the same dataset
// directory (a shared or replicated filesystem) and runs exactly the
// core-engine primitives — filter decisions, candidate bounds, τ-gated
// verification — over the ids the coordinator routes to it, and the
// coordinator runs core's ranking drivers over them (a core.Stages).
// A top-k's node runs the driver's own per-shard routine under its own
// τ, and an aggregation's node verifies under the driver's group gate,
// rebuilt from its request; either advances by its own landings, exact
// scores stream back to the driver, and its tightened τ is pushed to
// every in-flight node, which keeps the tighter of the two. Because all
// pruning is strict-inequality sound and the final ranking is
// re-sorted with deterministic tie-breaks, the gathered result is
// byte-identical to single-node execution regardless of which node
// verified what, which τ updates arrived in time, or whether a hedged
// or failover attempt answered.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout, reusing the WAL record discipline (internal/store/
// wal.go): a 1-byte frame type, a 4-byte little-endian payload length,
// the payload, and a CRC32-C over everything before it. The CRC turns
// a torn TCP stream or a corrupted proxy hop into a detected error
// instead of a misparsed request.
//
//	[1B type][4B LE payload len][payload][4B CRC32C(type+len+payload)]
const (
	frameHeaderLen = 5
	frameCRCLen    = 4

	// MaxFramePayload bounds a single frame's payload. A decoder must
	// reject a larger declared length before allocating anything, so a
	// corrupt or hostile length field can never balloon memory.
	MaxFramePayload = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame decoding errors. Both mean the connection is unusable (framing
// is lost once a frame is torn), so callers fail the request and let
// the retry/failover path take over.
var (
	ErrFrameTooLarge = errors.New("dist: frame exceeds size limit")
	ErrFrameCorrupt  = errors.New("dist: frame CRC mismatch")
)

// WriteFrame writes one frame and returns the bytes written (for
// bytes-moved accounting).
func WriteFrame(w io.Writer, typ byte, payload []byte) (int, error) {
	buf := make([]byte, frameHeaderLen, frameHeaderLen+len(payload)+frameCRCLen)
	return writeFrame(w, typ, append(buf, payload...))
}

// writeFrame writes buf as one frame: buf holds frameHeaderLen bytes of
// room for the header, then the payload, which encoders append in place.
func writeFrame(w io.Writer, typ byte, buf []byte) (int, error) {
	plen := len(buf) - frameHeaderLen
	if plen > MaxFramePayload {
		return 0, fmt.Errorf("dist: %d byte payload: %w", plen, ErrFrameTooLarge)
	}
	buf[0] = typ
	binary.LittleEndian.PutUint32(buf[1:frameHeaderLen], uint32(plen))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	n, err := w.Write(buf)
	if err != nil {
		return n, fmt.Errorf("dist: write frame: %w", err)
	}
	return n, nil
}

// ReadFrame reads one frame, returning its type, payload and the bytes
// it consumed: the total wire size of a whole frame, and what it read
// before failing otherwise, so 0 means no byte of a frame arrived. The
// declared payload length is validated against max (0 uses
// MaxFramePayload) before any payload allocation. A clean EOF on the
// first header byte is returned as io.EOF so stream consumers can
// distinguish an orderly close from a torn frame (io.ErrUnexpectedEOF)
// or a corrupt one (ErrFrameCorrupt).
func ReadFrame(r io.Reader, max int) (byte, []byte, int, error) {
	if max <= 0 {
		max = MaxFramePayload
	}
	var hdr [frameHeaderLen]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, n, fmt.Errorf("dist: read frame header: %w", err)
	}
	plen := binary.LittleEndian.Uint32(hdr[1:])
	if int64(plen) > int64(max) {
		return 0, nil, frameHeaderLen, fmt.Errorf("dist: %d byte payload declared (max %d): %w", plen, max, ErrFrameTooLarge)
	}
	body := make([]byte, int(plen)+frameCRCLen)
	if n, err := io.ReadFull(r, body); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, frameHeaderLen + n, fmt.Errorf("dist: torn frame: %w", err)
	}
	crc := crc32.Checksum(hdr[:], castagnoli)
	crc = crc32.Update(crc, castagnoli, body[:plen])
	if binary.LittleEndian.Uint32(body[plen:]) != crc {
		return 0, nil, frameHeaderLen + len(body), fmt.Errorf("dist: frame type 0x%02x: %w", hdr[0], ErrFrameCorrupt)
	}
	return hdr[0], body[:plen:plen], frameHeaderLen + len(body), nil
}
