package persist

import (
	"bytes"
	"testing"
)

// decodeJob parses and CRC-validates one job-log line as replay does.
func decodeJob(line []byte) (int, []byte, error) {
	var rec jobRecord
	err := decodeRecord(line, &rec)
	return rec.Index, rec.Body, err
}

func TestJobResultCodecRoundTrip(t *testing.T) {
	bodies := [][]byte{
		[]byte(`{"index":0}`),
		[]byte(`{"index":1,"explanation":{"rule":"IF Credit=poor THEN Denied"}}`),
		[]byte(`{"index":2,"no_key":true}`),
	}
	for i, body := range bodies {
		line, err := EncodeJobResult(i, body)
		if err != nil {
			t.Fatal(err)
		}
		if line[len(line)-1] != '\n' {
			t.Fatalf("record %d does not end in newline", i)
		}
		idx, got, err := decodeJob(line[:len(line)-1])
		if err != nil {
			t.Fatal(err)
		}
		if idx != i || !bytes.Equal(got, body) {
			t.Fatalf("round trip: got (%d, %q), want (%d, %q)", idx, got, i, body)
		}
	}
}

func TestJobResultCodecRejectsDamage(t *testing.T) {
	line, err := EncodeJobResult(3, []byte(`{"index":3}`))
	if err != nil {
		t.Fatal(err)
	}
	rec := line[:len(line)-1]
	for i := range rec {
		mutated := append([]byte(nil), rec...)
		mutated[i] ^= 0x20
		if bytes.Equal(mutated, rec) {
			continue
		}
		// The checksum covers the canonical re-marshal of the record, so a
		// flip that still decodes must be content-preserving (e.g. JSON field
		// names match case-insensitively and re-canonicalize identically); a
		// flip that changed the payload must be rejected.
		idx, body, err := decodeJob(mutated)
		if err == nil && (idx != 3 || !bytes.Equal(body, []byte(`{"index":3}`))) {
			t.Fatalf("byte %d flipped yet record decoded to different content (%d, %q)", i, idx, body)
		}
	}
	if _, _, err := decodeJob([]byte("not json")); err == nil {
		t.Fatal("garbage line decoded")
	}
}
