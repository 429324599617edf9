package replay

// AppendRecord exposes the record encoder to the external tests.
var AppendRecord = appendRecord

// Entry is a loaded record with its position in the log.
type Entry struct {
	Rec    Record
	Index  int   // 0-based line index (head is line 0)
	Offset int64 // byte offset of the record's end
}

// Contents exposes a loaded log's head and per-stop records.
func Contents(l *Log) (Head, map[int][]Entry) {
	stops := make(map[int][]Entry, len(l.stops))
	for stop, recs := range l.stops {
		for _, lr := range recs {
			stops[stop] = append(stops[stop], Entry{Rec: lr.rec, Index: lr.index, Offset: lr.offset})
		}
	}
	return l.head, stops
}
