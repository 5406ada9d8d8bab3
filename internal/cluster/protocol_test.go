package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []frame{
		{msgType: msgInfo},
		{msgType: msgQuery, payload: putU64(nil, 42)},
		{msgType: msgSample | respBit, payload: bytes.Repeat([]byte{0xab}, 1000)},
		{msgType: msgErr | respBit, payload: []byte("boom")},
	}
	for _, want := range cases {
		var buf bytes.Buffer
		if err := writeFrame(&buf, want); err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame: %v", err)
		}
		if got.msgType != want.msgType || !bytes.Equal(got.payload, want.payload) {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestFrameRoundTripQuick(t *testing.T) {
	f := func(msgType uint8, payload []byte) bool {
		var buf bytes.Buffer
		if err := writeFrame(&buf, frame{msgType: msgType, payload: payload}); err != nil {
			return false
		}
		got, err := readFrame(&buf)
		if err != nil {
			return false
		}
		return got.msgType == msgType && bytes.Equal(got.payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	err := writeFrame(io.Discard, frame{
		msgType: msgQuery,
		payload: make([]byte, MaxFrameSize+1),
	})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("error = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameOversized(t *testing.T) {
	// A length prefix beyond the limit must be rejected before any
	// allocation of the body.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("error = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{msgType: msgQuery, payload: putU64(nil, 1)}); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	truncated := buf.Bytes()[:buf.Len()-3]
	if _, err := readFrame(bytes.NewReader(truncated)); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestReadFrameBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{msgType: msgInfo}); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // corrupt the version byte
	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("error = %v, want ErrBadMessage", err)
	}
}

func TestReadFrameEOF(t *testing.T) {
	if _, err := readFrame(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("error = %v, want io.EOF (clean shutdown signal)", err)
	}
}

func TestPayloadHelpers(t *testing.T) {
	b := putU64(nil, 0xdeadbeef)
	b = putF64(b, 3.25)
	u, err := getU64(b, 0)
	if err != nil || u != 0xdeadbeef {
		t.Errorf("getU64 = %v, %v", u, err)
	}
	f, err := getF64(b, 8)
	if err != nil || f != 3.25 {
		t.Errorf("getF64 = %v, %v", f, err)
	}
	if _, err := getU64(b, 9); !errors.Is(err, ErrBadMessage) {
		t.Errorf("short read error = %v", err)
	}
	if _, err := getF64(b, 16); !errors.Is(err, ErrBadMessage) {
		t.Errorf("short float read error = %v", err)
	}
}

func TestDecodeMaybeErr(t *testing.T) {
	if err := decodeMaybeErr(encodeErr(errors.New("kapow")), msgQuery); !errors.Is(err, ErrRemote) {
		t.Errorf("remote error not surfaced: %v", err)
	} else if !strings.Contains(err.Error(), "kapow") {
		t.Errorf("remote error text lost: %v", err)
	}
	if err := decodeMaybeErr(frame{msgType: msgInfo | respBit}, msgQuery); !errors.Is(err, ErrBadMessage) {
		t.Errorf("type mismatch not detected: %v", err)
	}
	if err := decodeMaybeErr(frame{msgType: msgQuery | respBit}, msgQuery); err != nil {
		t.Errorf("valid response rejected: %v", err)
	}
}

func TestServerRejectsUnknownMessageType(t *testing.T) {
	acc, _ := testAccess(t, 10)
	srv, err := NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	defer srv.Close()

	c, err := dial(context.Background(), srv.Addr(), 0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.close()
	if err := c.roundTrip(context.Background(), frame{msgType: 0x6e}, nil); !errors.Is(err, ErrRemote) {
		t.Errorf("unknown message error = %v, want ErrRemote", err)
	}
}

func TestInstanceServerRejectsOversizedSampleBatch(t *testing.T) {
	acc, _ := testAccess(t, 10)
	srv, err := NewInstanceServer("127.0.0.1:0", acc)
	if err != nil {
		t.Fatalf("NewInstanceServer: %v", err)
	}
	defer srv.Close()

	c, err := dial(context.Background(), srv.Addr(), 0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.close()
	payload := putU64(nil, maxSampleBatch+1)
	payload = putU64(payload, 7)
	if err := c.roundTrip(context.Background(), frame{msgType: msgSample, payload: payload}, nil); !errors.Is(err, ErrRemote) {
		t.Errorf("oversized batch error = %v, want ErrRemote", err)
	}
}

func TestLCAServerRejectsWrongMessage(t *testing.T) {
	acc, _ := testAccess(t, 50)
	lcaSrv := newTestLCAServer(t, acc)
	c, err := dial(context.Background(), lcaSrv.Addr(), 0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.close()
	if err := c.roundTrip(context.Background(), frame{msgType: msgInfo}, nil); !errors.Is(err, ErrRemote) {
		t.Errorf("wrong message error = %v, want ErrRemote", err)
	}
}
