package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/privacylab/blowfish/internal/persist"
)

// updateWALDir holds the WAL records and replies an earlier daemon, with
// separate keyed and unkeyed update functions, wrote for updateWALScript:
// records.jsonl has one raw WAL record per line, replies.json the replies
// in order.
const updateWALDir = "testdata/update_wal_parent"

// walReply is one reply of the update script as the client saw it.
type walReply struct {
	Step   string `json:"step"`
	Status int    `json:"status"`
	Replay bool   `json:"replay"`
	Body   string `json:"body"`
}

// updateWALStep is one POST /v1/update of the script; ikey "" is unkeyed.
type updateWALStep struct {
	name, ikey, tenant string
	base               []float64
	cells              []int
	values             []float64
}

// updateWALScript covers both record shapes: unkeyed updates write an
// "open" and an "apply" record ahead of the mutation, keyed ones a single
// "idem_update" after it. A base on an existing stream is rejected and
// writes nothing; a keyed retry replays without a record.
var updateWALScript = []updateWALStep{
	{"unkeyed-create", "", "u", []float64{1, 2, 3, 4, 5, 6, 7, 8}, nil, nil},
	{"unkeyed-delta", "", "u", nil, []int{0, 3, 3}, []float64{2, -1, 0.5}},
	{"unkeyed-base-exists", "", "u", make([]float64, 8), nil, nil},
	{"keyed-create", "k-create", "v", []float64{8, 7, 6, 5, 4, 3, 2, 1}, []int{1}, []float64{4}},
	{"keyed-delta", "k-delta", "v", nil, []int{2, 7}, []float64{-3, 1}},
	{"keyed-replay", "k-delta", "v", nil, []int{2, 7}, []float64{-3, 1}},
}

func (st updateWALStep) send(t *testing.T, s *Server) walReply {
	t.Helper()
	rec := postKeyed(t, s, "/v1/update", st.ikey, updateBody(t, st.tenant, 8, st.base, st.cells, st.values))
	return walReply{Step: st.name, Status: rec.Code, Replay: rec.Header().Get("Idempotent-Replay") == "true", Body: rec.Body.String()}
}

// readUpdateWALFixture returns the checked-in records and replies.
func readUpdateWALFixture(t *testing.T) ([][]byte, []walReply) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(updateWALDir, "records.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var records [][]byte
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		records = append(records, append([]byte(nil), sc.Bytes()...))
	}
	raw, err = os.ReadFile(filepath.Join(updateWALDir, "replies.json"))
	if err != nil {
		t.Fatal(err)
	}
	var replies []walReply
	if err := json.Unmarshal(raw, &replies); err != nil {
		t.Fatal(err)
	}
	return records, replies
}

// walRecordsIn returns the records of the one live WAL in dir.
func walRecordsIn(t *testing.T, dir string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want one live WAL in %s, got %v (%v)", dir, files, err)
	}
	image, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := persist.DecodeWAL(image)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestUpdateWALPinnedToParent pins the update path's durable bytes: the
// script's WAL records and reply bodies must equal the checked-in ones byte
// for byte, and a daemon recovering from those records must restore the
// same streams and replay the same keyed bodies.
func TestUpdateWALPinnedToParent(t *testing.T) {
	wantRecords, wantReplies := readUpdateWALFixture(t)
	dir := t.TempDir()
	s := New(durable(dir, nil))
	s.idem.now = func() time.Time { return time.Unix(1_800_000_000, 0) }
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var replies []walReply
	for _, st := range updateWALScript {
		replies = append(replies, st.send(t, s))
	}
	if !reflect.DeepEqual(replies, wantReplies) {
		t.Fatalf("replies differ from the fixture:\n got %+v\nwant %+v", replies, wantReplies)
	}
	records := walRecordsIn(t, dir)
	if len(records) != len(wantRecords) {
		t.Fatalf("%d WAL records, fixture has %d", len(records), len(wantRecords))
	}
	for i := range records {
		if !bytes.Equal(records[i], wantRecords[i]) {
			t.Fatalf("WAL record %d differs:\n got %s\nwant %s", i, records[i], wantRecords[i])
		}
	}

	rdir := t.TempDir()
	store, _, err := persist.Open(rdir, persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range wantRecords {
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	cfg := durable(rdir, nil)
	cfg.IdemTTL = -1 // the records carry the fixed clock's timestamps
	r := New(cfg)
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	key, _, err := planKey(PolicySpec{Kind: "line", K: 8}, WorkloadSpec{Kind: "histogram"}, OptionsSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"u", "v"} {
		live, ok := s.streams.get(streamKey(tenant, key))
		if !ok {
			t.Fatalf("tenant %q: no live stream", tenant)
		}
		got, ok := r.streams.get(streamKey(tenant, key))
		if !ok {
			t.Fatalf("tenant %q: recovery restored no stream", tenant)
		}
		if !reflect.DeepEqual(got.ExportState(), live.ExportState()) {
			t.Fatalf("tenant %q: recovered stream %+v != live %+v", tenant, got.ExportState(), live.ExportState())
		}
	}
	for i, st := range updateWALScript {
		if st.ikey == "" {
			continue
		}
		got := st.send(t, r)
		if got.Status != http.StatusOK || !got.Replay || got.Body != wantReplies[i].Body {
			t.Fatalf("%s after recovery: %+v, want a replay of %q", st.name, got, wantReplies[i].Body)
		}
	}
}
