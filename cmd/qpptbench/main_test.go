package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// history is a one-snapshot BENCH_qppt.json as an earlier qpptbench
// wrote it, carrying the retired mmap-thaw flag and rows of the retired
// SWAR-kernel ablation.
const history = `{
  "snapshots": [
    {
      "label": "before",
      "when": "2026-01-01T00:00:00Z",
      "sf": 0.05,
      "workers": 1,
      "gomaxprocs": 2,
      "membudget": 4194304,
      "recycle": true,
      "mmapthaw": true,
      "queries": [
        {
          "Query": "1.1",
          "Engine": "QPPT",
          "Config": "",
          "Millis": 2.5,
          "Rows": 1
        }
      ],
      "kernel": [
        {
          "query": "1.1",
          "kernelMillis": 2.965,
          "scalarMillis": 3.387,
          "materializedMillis": 4.364,
          "kernelDescents": 77,
          "scalarDescents": 0,
          "identical": true
        }
      ]
    }
  ]
}
`

// TestAppendSnapshotKeepsKernelRows appends a snapshot to a history that
// holds retired kernel rows and mmap-thaw flag: the recorded snapshot,
// retired keys included, must survive byte-for-byte ahead of the new one.
func TestAppendSnapshotKeepsKernelRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_qppt.json")
	if err := os.WriteFile(path, []byte(history), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendSnapshot(path, benchSnapshot{Label: "next", SF: 0.05, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Everything up to the end of the old last snapshot is unchanged; the
	// new snapshot follows it.
	tail := []byte("\n  ]\n}\n")
	kept := bytes.TrimSuffix([]byte(history), tail)
	if !bytes.HasPrefix(got, append(kept, ",\n"...)) {
		t.Fatalf("recorded history rewritten; got:\n%s", got)
	}
	var hist struct {
		Snapshots []map[string]json.RawMessage `json:"snapshots"`
	}
	if err := json.Unmarshal(got, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Snapshots) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(hist.Snapshots))
	}
	for _, retired := range []string{"kernel", "mmapthaw"} {
		if _, ok := hist.Snapshots[1][retired]; ok {
			t.Fatalf("new snapshot carries a %s key", retired)
		}
	}
}
