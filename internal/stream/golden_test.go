package stream

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/asap-go/asap/internal/datasets"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/frame_hashes.golden from current output")

// The served shape: the server's default window and resolution, fed in
// the small batches a line-protocol client posts.
const (
	servedWindowPoints = 14400
	servedResolution   = 800
	goldenBatch        = 32
	goldenPoints       = 60000 // per dataset
	goldenSeed         = 1
)

// goldenFrameHash streams one dataset through an operator at the served
// shape and returns the SHA-256 over every emitted frame's sequence,
// window, roughness and kurtosis bits, and value bits, plus the number
// of frames hashed.
func goldenFrameHash(t testing.TB, xs []float64) (string, int) {
	t.Helper()
	op, err := New(Config{WindowPoints: servedWindowPoints, Resolution: servedResolution})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	frames := 0
	for off := 0; off < len(xs); off += goldenBatch {
		f, ok := op.PushBatch(xs[off:min(off+goldenBatch, len(xs))])
		if !ok {
			continue
		}
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Sequence))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Window))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f.Roughness))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f.Kurtosis))
		for _, v := range f.Smoothed {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		h.Write(buf)
		f.Release()
		frames++
	}
	return hex.EncodeToString(h.Sum(nil)), frames
}

// TestGoldenFrameHashes pins the frames of the refresh kernel bit for
// bit: each of the 11 catalog datasets, streamed at the served shape,
// must hash exactly as recorded in testdata/frame_hashes.golden. A
// kernel optimisation that changes any frame (a different window, or
// one rounding step in a value) fails here. Regenerate with
// go test ./internal/stream -run GoldenFrameHashes -update, and only
// when a frame change is intended.
func TestGoldenFrameHashes(t *testing.T) {
	var got strings.Builder
	for _, spec := range datasets.Catalog() {
		xs := spec.GenerateN(goldenPoints, goldenSeed).Values
		sum, frames := goldenFrameHash(t, xs)
		fmt.Fprintf(&got, "%s %6d %s\n", sum, frames, spec.Name)
	}
	golden := filepath.Join("testdata", "frame_hashes.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("frame hashes differ from %s:\n got:\n%s want:\n%s", golden, got.String(), want)
	}
}
