package wire

import (
	"bytes"
	"testing"

	"repro/internal/tuple"
)

// TestPageEncoderMatchesMarshal holds the streaming encoder to the
// QueryPage codec byte for byte: full pages, a short last page, an
// empty last page, with and without RIDs, and an encoder reused across
// pages.
func TestPageEncoderMatchesMarshal(t *testing.T) {
	rows := make([]tuple.Row, 300)
	for i := range rows {
		rows[i] = tuple.Row{tuple.Int64(int64(i) << 20), tuple.String(string(make([]byte, i%7))), sampleRow()[i%11]}
	}
	for _, withRIDs := range []bool{false, true} {
		for _, tc := range []struct {
			name     string
			n, pageN int
		}{
			{"empty", 0, 10},
			{"short", 3, 10},
			{"exact pages, empty last", 100, 50},
			{"pages and a short last", 300, 128},
		} {
			var enc PageEncoder
			var got, want [][]byte
			var page QueryPage
			reqID := uint64(1)<<40 + uint64(tc.n)
			for i, row := range rows[:tc.n] {
				enc.Append(row)
				page.Rows = append(page.Rows, row)
				if withRIDs {
					rid := uint64(i) * 0x10001
					enc.AppendRID(rid)
					page.RIDs = append(page.RIDs, rid)
				}
				if enc.Rows() >= tc.pageN {
					got = append(got, enc.Frame(reqID, false))
					want = append(want, AppendFrame(nil, reqID, TQueryPage, page.Marshal(nil)))
					page = QueryPage{}
				}
			}
			got = append(got, enc.Frame(reqID, true))
			page.Last = true
			want = append(want, AppendFrame(nil, reqID, TQueryPage, page.Marshal(nil)))
			if len(got) != len(want) {
				t.Fatalf("%s rids=%v: %d frames, want %d", tc.name, withRIDs, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s rids=%v: frame %d differs from Marshal+AppendFrame", tc.name, withRIDs, i)
				}
				if len(got[i]) != cap(got[i]) {
					t.Errorf("%s rids=%v: frame %d has len %d, cap %d; want exact size", tc.name, withRIDs, i, len(got[i]), cap(got[i]))
				}
				f, _, err := ReadFrame(bytes.NewReader(got[i]), nil)
				if err != nil || f.ReqID != reqID || f.Type != TQueryPage {
					t.Fatalf("%s rids=%v: frame %d reads back as %+v, %v", tc.name, withRIDs, i, f, err)
				}
			}
		}
	}
}

func TestUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1 << 35, 1<<64 - 1} {
		if got, want := uvarintLen(v), len(appendUvarint(nil, v)); got != want {
			t.Errorf("uvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
}
