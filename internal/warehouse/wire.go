package warehouse

import (
	"strconv"

	"streamloader/internal/stt"
)

// This file is the wire form of an aggregate result: what the aggregate
// endpoint returns and what a subscription pushes, written by appending —
// no reflection, no intermediate structs — like an event's
// (stt.Tuple.AppendJSON). The bytes are exactly what encoding/json wrote
// for the structs these functions replaced, except that a NaN or ±Inf
// value, which encoding/json refuses, is written as null.

// AppendJSON appends the row's wire form:
//
//	{"bucket":"<RFC3339Nano, UTC>","source":"…","theme":"…","count":N,"value":X}
//
// with bucket present only for a bucketed query and source/theme only when
// non-empty.
func (r *AggRow) AppendJSON(dst []byte, bucketed bool) []byte {
	dst = append(dst, '{')
	if bucketed {
		dst = append(dst, `"bucket":`...)
		dst = stt.AppendJSONTime(dst, r.Bucket)
		dst = append(dst, ',')
	}
	if r.Source != "" {
		dst = append(dst, `"source":`...)
		dst = stt.AppendJSONString(dst, r.Source)
		dst = append(dst, ',')
	}
	if r.Theme != "" {
		dst = append(dst, `"theme":`...)
		dst = stt.AppendJSONString(dst, r.Theme)
		dst = append(dst, ',')
	}
	dst = append(dst, `"count":`...)
	dst = strconv.AppendInt(dst, r.Count, 10)
	dst = append(dst, `,"value":`...)
	dst = stt.AppendJSONFloat(dst, r.Value)
	return append(dst, '}')
}

// AppendAggRowsJSON appends rows as a JSON array of AggRow.AppendJSON
// objects ("[]" when there are none).
func AppendAggRowsJSON(dst []byte, rows []AggRow, bucketed bool) []byte {
	dst = append(dst, '[')
	for i := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = rows[i].AppendJSON(dst, bucketed)
	}
	return append(dst, ']')
}

// AppendJSON appends the update's wire form:
//
//	{"version":N,"rows":[…],"resnapshot":true,"shed":N,"error":"…"}
//
// with the last three present only when set (as omitempty had it: an error
// with an empty message is not written). The rows are RowsJSON, copied:
// the one part of a frame that is the same for every subscriber is not
// encoded again here. An update without RowsJSON (the terminal error
// update) has "rows":[].
func (u *ViewUpdate) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"version":`...)
	dst = strconv.AppendUint(dst, u.Version, 10)
	dst = append(dst, `,"rows":`...)
	if len(u.RowsJSON) > 0 {
		dst = append(dst, u.RowsJSON...)
	} else {
		dst = append(dst, "[]"...)
	}
	if u.Resnapshot {
		dst = append(dst, `,"resnapshot":true`...)
	}
	if u.Shed > 0 {
		dst = append(dst, `,"shed":`...)
		dst = strconv.AppendUint(dst, u.Shed, 10)
	}
	if u.Err != nil {
		if msg := u.Err.Error(); msg != "" {
			dst = append(dst, `,"error":`...)
			dst = stt.AppendJSONString(dst, msg)
		}
	}
	return append(dst, '}')
}
