package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
)

// refDecodeIngestLine is the encoding/json decode that ingestBatch ran on
// every line before decodeIngestLine, kept verbatim as the reference the
// hand-written decoder is held to. It also returns the input offset just
// past the decoded value, which tells a trailing ']' or '}' (accepted here,
// since Decoder.More reports false on them) from other trailing data.
func refDecodeIngestLine(raw []byte) (ingestLine, int64, error) {
	var l ingestLine
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&l); err != nil {
		return l, 0, errors.New(strings.TrimPrefix(err.Error(), "json: "))
	}
	if dec.More() {
		return l, 0, errors.New("trailing data after the sample object")
	}
	return l, dec.InputOffset(), nil
}
