// Package wire implements the nblb network protocol: length-prefixed
// checksummed frames carrying request-ID-tagged messages, plus a
// self-describing codec for rows and values so clients need no schema
// to decode results.
//
// Frame layout (all integers little-endian):
//
//	[uint32 payloadLen] [uint32 crc32c] [uint64 reqID] [uint8 type] [payload]
//
// payloadLen counts only the payload bytes; the CRC (Castagnoli) covers
// reqID, type, and payload, so a torn or bit-flipped frame — including
// its header tail — is rejected before dispatch. Request IDs let a
// pipelined connection complete out of order: the server echoes the
// ID of the request each response answers.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFrame bounds a frame's payload. Frames claiming more are rejected
// without allocating, so a corrupt length prefix cannot OOM the peer.
const MaxFrame = 16 << 20

// headerSize is the fixed prefix before the payload.
const headerSize = 4 + 4 + 8 + 1

// Message types. Requests and responses share one space; a response's
// type is independent of its request's (e.g. most DDL acks are TOK).
const (
	TErr          uint8 = 1  // ErrResp — request failed
	TOK           uint8 = 2  // empty ack
	TPing         uint8 = 3  // empty liveness probe (response: TOK)
	TApply        uint8 = 4  // ApplyReq
	TApplyResp    uint8 = 5  // ApplyResp
	TGet          uint8 = 6  // GetReq — point lookup
	TGetResp      uint8 = 7  // GetResp
	TQuery        uint8 = 8  // QueryReq — opens a streaming cursor
	TQueryPage    uint8 = 9  // QueryPage — one page; Last marks the end
	TCreateTable  uint8 = 10 // CreateTableReq (response: TOK)
	TCreateIndex  uint8 = 11 // CreateIndexReq (response: TOK)
	TCheckpoint   uint8 = 12 // empty — force a checkpoint (response: TOK)
	TStats        uint8 = 13 // empty — engine counters (response: TStatsResp)
	TStatsResp    uint8 = 14 // StatsResp
	TTxnBegin     uint8 = 15 // empty — open a snapshot transaction (response: TTxnBeginResp)
	TTxnBeginResp uint8 = 16 // TxnBeginResp
	TTxnCommit    uint8 = 17 // TxnFinishReq — commit (response: TOK, or TErr on conflict)
	TTxnAbort     uint8 = 18 // TxnFinishReq — abort (response: TOK)
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Protocol errors surfaced by ReadFrame.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrBadCRC        = errors.New("wire: frame checksum mismatch")
)

// Frame is one decoded protocol frame.
type Frame struct {
	ReqID   uint64
	Type    uint8
	Payload []byte
}

// AppendFrame appends a complete frame to dst and returns the extended
// slice. It is the encode path for both sides; writers batch several
// frames into one buffer before a single Write.
func AppendFrame(dst []byte, reqID uint64, typ uint8, payload []byte) []byte {
	if len(payload) > MaxFrame {
		panic(fmt.Sprintf("wire: payload %d exceeds MaxFrame", len(payload)))
	}
	off := len(dst)
	dst = append(dst, make([]byte, headerSize)...)
	dst = append(dst, payload...)
	sealFrame(dst[off:], reqID, typ)
	return dst
}

// sealFrame fills in the header of frame, whose payload already
// follows headerSize reserved bytes.
func sealFrame(frame []byte, reqID uint64, typ uint8) {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-headerSize))
	binary.LittleEndian.PutUint64(frame[8:], reqID)
	frame[16] = typ
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[8:], castagnoli))
}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, reqID uint64, typ uint8, payload []byte) error {
	buf := AppendFrame(nil, reqID, typ, payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads the next frame, reusing buf for the payload when it
// fits. A short read mid-frame returns io.ErrUnexpectedEOF (a cleanly
// closed connection returns io.EOF only at a frame boundary); an
// oversized length prefix returns ErrFrameTooLarge and a checksum
// mismatch ErrBadCRC — both before any payload escapes to dispatch.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return Frame{}, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return Frame{}, buf, ErrFrameTooLarge
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	want := binary.LittleEndian.Uint32(hdr[4:8])
	need := int(n) + (headerSize - 8)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	copy(buf, hdr[8:])
	if _, err := io.ReadFull(r, buf[headerSize-8:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, err
	}
	if crc32.Checksum(buf, castagnoli) != want {
		return Frame{}, buf, ErrBadCRC
	}
	return Frame{
		ReqID:   binary.LittleEndian.Uint64(buf[:8]),
		Type:    buf[8],
		Payload: buf[9:],
	}, buf, nil
}
