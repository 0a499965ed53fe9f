package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	var buf bytes.Buffer
	for _, p := range payloads {
		if _, err := WriteFrame(&buf, ftFilter, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		typ, got, n, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if typ != ftFilter {
			t.Fatalf("type = 0x%02x, want 0x%02x", typ, ftFilter)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("payload mismatch: %d bytes, want %d", len(got), len(p))
		}
		if want := frameHeaderLen + len(p) + frameCRCLen; n != want {
			t.Fatalf("wire size = %d, want %d", n, want)
		}
	}
	if _, _, _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("drained stream: err = %v, want io.EOF", err)
	}
}

func TestFrameErrors(t *testing.T) {
	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, ftHello, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	t.Run("torn header", func(t *testing.T) {
		_, _, n, err := ReadFrame(bytes.NewReader(frame([]byte("abc"))[:3]), 0)
		if !errors.Is(err, io.ErrUnexpectedEOF) || n != 3 {
			t.Fatalf("err = %v after %d bytes, want ErrUnexpectedEOF after 3", err, n)
		}
	})
	t.Run("torn body", func(t *testing.T) {
		f := frame([]byte("hello world"))
		_, _, n, err := ReadFrame(bytes.NewReader(f[:len(f)-6]), 0)
		if !errors.Is(err, io.ErrUnexpectedEOF) || n != len(f)-6 {
			t.Fatalf("err = %v after %d bytes, want ErrUnexpectedEOF after %d", err, n, len(f)-6)
		}
	})
	t.Run("corrupt payload", func(t *testing.T) {
		f := frame([]byte("hello world"))
		f[frameHeaderLen+2] ^= 0x40
		_, _, n, err := ReadFrame(bytes.NewReader(f), 0)
		if !errors.Is(err, ErrFrameCorrupt) || n != len(f) {
			t.Fatalf("err = %v after %d bytes, want ErrFrameCorrupt after %d", err, n, len(f))
		}
	})
	t.Run("corrupt crc", func(t *testing.T) {
		f := frame([]byte("hello world"))
		f[len(f)-1] ^= 0x01
		_, _, _, err := ReadFrame(bytes.NewReader(f), 0)
		if !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("err = %v, want ErrFrameCorrupt", err)
		}
	})
	t.Run("oversized declared length", func(t *testing.T) {
		// A header declaring a huge payload must be rejected before any
		// allocation, not trusted and then EOF'd.
		hdr := make([]byte, frameHeaderLen)
		hdr[0] = ftHello
		binary.LittleEndian.PutUint32(hdr[1:], 1<<31-1)
		_, _, _, err := ReadFrame(bytes.NewReader(hdr), 0)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("oversized vs custom max", func(t *testing.T) {
		f := frame(bytes.Repeat([]byte{1}, 100))
		_, _, _, err := ReadFrame(bytes.NewReader(f), 64)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	})
	t.Run("write oversized", func(t *testing.T) {
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, ftHello, make([]byte, MaxFramePayload+1)); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v, want ErrFrameTooLarge", err)
		}
	})
}

// FuzzFrame drives the wire-protocol decoder with arbitrary bytes:
// torn, corrupt or oversized input must produce an error — never a
// panic and never an allocation beyond the declared-length cap.
func FuzzFrame(f *testing.F) {
	seed := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, typ, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add(seed(ftHello, nil))
	f.Add(seed(ftFilter, encodeMsg(nil, &filterReq{BootID: "b", IDs: []int64{1, 2, 3}})))
	f.Add(seed(ftScores, bytes.Repeat([]byte{7}, 300)))
	f.Add(seed(ftTau, encodeMsg(nil, &tauPush{ID: 3, Score: 42}))[:4])
	f.Add(seed(ftEnd, nil))
	corrupt := seed(ftVerifyRes, encodeMsg(nil, &verifyRes{}))
	corrupt[7] ^= 0xFF
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFuzz = 1 << 16
		typ, payload, n, err := ReadFrame(bytes.NewReader(data), maxFuzz)
		if err != nil {
			return
		}
		if len(payload) > maxFuzz {
			t.Fatalf("decoder returned %d payload bytes past the %d cap", len(payload), maxFuzz)
		}
		if n > len(data) {
			t.Fatalf("decoder claims %d wire bytes from %d input bytes", n, len(data))
		}
		// A frame the decoder accepted must re-encode to the same bytes.
		var buf bytes.Buffer
		if _, werr := WriteFrame(&buf, typ, payload); werr != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", werr)
		}
		if !bytes.Equal(buf.Bytes(), data[:n]) {
			t.Fatal("accepted frame does not round-trip byte-identically")
		}
	})
}
