// Package persist holds the crash-safe state of the CCE service (DESIGN.md
// §9): checksummed snapshots of the retained context stamped with their
// observation sequence number, the append-only observation log (WAL) replayed
// past that watermark, the per-job result checkpoint logs (§15), and the
// atomic file write they share. Both logs are one record discipline
// (record.go): CRC-framed NDJSON, one write per record, one replay scanner
// that drops a torn final line and refuses mid-file damage as ErrCorruptLog,
// and one file recovery that truncates the torn tail it dropped. A
// bank-style client (§1's scenario) keeps its inference log on disk and
// reloads it as the explanation context on the next run.
package persist

import "github.com/xai-db/relativekeys/internal/feature"

// schemaJSON is the schema as a snapshot carries it.
type schemaJSON struct {
	Attrs  []feature.Attribute `json:"attrs"`
	Labels []string            `json:"labels"`
}
