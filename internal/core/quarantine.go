package core

// quarantine.go is the record-granular half of the failure model: while
// plan.go and kernels.go fail (or let the caller quarantine) whole
// partitions, the bad-record reporter here diverts individual rejected
// records — inconsistent column counts under RejectInconsistent,
// unconvertible fields under RejectMalformed — to the caller's
// Exec.OnBadRecord callback with their raw bytes and absolute offsets,
// so a long-running ingestion can route malformed records to a dead
// letter sink instead of failing or silently nulling them.

// BadRecord is one rejected record as reported to Exec.OnBadRecord.
type BadRecord struct {
	// Partition is the streaming partition the record was parsed in
	// (Exec.Partition; 0 for single-shot parses).
	Partition int
	// Row is the record's row index in the partition's output table —
	// the same index the table's rejected vector flags.
	Row int64
	// Offset is the absolute stream offset of the record's first byte
	// (Exec.BaseOffset plus the in-partition position). For transcoded
	// UTF-16 input it is a position in the partition's UTF-8
	// transcription.
	Offset int64
	// Raw is the record's raw bytes, without its trailing record
	// delimiter. The slice aliases pipeline memory and is only valid for
	// the duration of the callback; copy it to retain it.
	Raw []byte
}

// reportBadRecords walks the rejected vector and reports each flagged
// record's byte span to the bad-record callback. It must run while the
// record bitmap is still alive (before the arena resets for the next
// partition).
//
// The record walk mirrors the output-record numbering of the fused
// tag-scatter's count pass (tagSymbols, walkTile in tag.go) exactly:
// input record rec maps to output row rec - |skips below rec| - |Where
// pushdown drops below rec|, with records beyond numRecords (the
// carry-over remainder) out of scope because the loop is bounded by
// numRecords. Record rec spans from one past the previous record
// delimiter to its own delimiter (the trailing record, which has none,
// ends at the input's end).
func (p *pipeline) reportBadRecords() int64 {
	if p.onBadRecord == nil || p.bitmaps == nil || !anyTrue(p.rejected) {
		return 0
	}
	n := len(p.input)
	skip := p.SkipRecords
	dropped := p.dropped
	if !p.pushdown {
		dropped = nil
	}
	var count, dropBefore int64
	start := 0
	skipPtr := 0
	for rec := int64(0); rec < p.numRecords; rec++ {
		end, nextStart := n, n // trailing record: no delimiter
		if delim, ok := p.bitmaps.Record.FirstSetInRange(start, n); ok {
			end, nextStart = delim, delim+1
		}
		inSkipList := skipPtr < len(skip) && skip[skipPtr] == rec
		recDropped := dropped != nil && dropped[rec]
		if inSkipList || recDropped {
			if inSkipList {
				skipPtr++
			}
			if recDropped {
				dropBefore++
			}
			start = nextStart
			continue
		}
		outRec := rec - int64(skipPtr) - dropBefore
		if outRec >= 0 && outRec < int64(len(p.rejected)) && p.rejected[outRec] {
			p.onBadRecord(BadRecord{
				Partition: p.partition,
				Row:       outRec,
				Offset:    p.baseOffset + int64(start),
				Raw:       p.input[start:end],
			})
			count++
		}
		start = nextStart
	}
	return count
}
