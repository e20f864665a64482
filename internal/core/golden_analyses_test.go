package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"fpstudy/internal/colstore"
	"fpstudy/internal/quiz"
)

// analysisNames lists the analyses fpreport renders besides the
// figures, in the order of its flags.
var analysisNames = [5]string{"items", "calibration", "association", "intervention", "confidence"}

// analysesDigests renders the five analyses of a results set and
// returns the hex SHA-256 of each rendered table.
func analysesDigests(r *Results) [5]string {
	tables := [5]string{
		r.ItemAnalysis().String(),
		r.CalibrationReport().String(),
		r.FactorAssociation().String(),
		r.InterventionReport().String(),
		r.ConfidenceReport().String(),
	}
	var out [5]string
	for i, s := range tables {
		sum := sha256.Sum256([]byte(s))
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

// goldenAnalyses pins the rendered analyses at seed 42. The digests
// were recorded from the row-view implementations the columnar ones
// replaced, so a match proves the port is byte-identical.
var goldenAnalyses = map[int][5]string{
	199: {
		"74c652370b4c9df3d0a6152ea35ea1b8f629a2ad817b2179d3d957ba04f816c8",
		"e9a76ee081f1a5a6fb9b61081c0a3c390870d4c1ad0dd4f23424f0d08fd567db",
		"f43aa09691b44f3c8683f4d43ee4851a63e3be84dcbc66197e08fb7d91387c4e",
		"3a515afe9fbdd4bf48b8f8c5926cd94210820737ad0af1f9d5b63685cf491510",
		"4c57455eaa80dfee563695a1a0a670f7a942bd68aafe54725631b7e3ed8bfe4c",
	},
	2000: {
		"cc5bc7c84fdfa31d1130b1b89a1b955b3b27a96f4670f911ee14fe9ad029c5b8",
		"f986573b4ae549610c184c52a389595630bbdf23b1cd8c6d065fe08a93c46787",
		"dfb7e7c30647c50689ea707350f6ed9afa7ddcffb032635c055bf209da509bc6",
		"7d977e17f63d06f26385cf57150f51a2cf3be231b73c06372cfb903114342c7c",
		"6663006e2b3e7cef94da70e018a77012d1ccec5f11e8c6abc6d0f5f7963328ec",
	},
}

// TestGoldenAnalysesWorkerSweep pins the five analyses (items,
// calibration, association, intervention, confidence) byte for byte at
// n=199 and n=2000, for both an in-process Study.Run and a cohort
// loaded back from FPDS through ResultsFromColumns, at workers 1, 4
// and 16.
func TestGoldenAnalysesWorkerSweep(t *testing.T) {
	raiseGOMAXPROCS(t, 16)
	for _, n := range []int{199, 2000} {
		want := goldenAnalyses[n]
		check := func(path string, workers int, r *Results) {
			t.Helper()
			got := analysesDigests(r)
			for k := range got {
				if got[k] != want[k] {
					t.Errorf("n=%d %s workers=%d: %s digest %s, want %s",
						n, path, workers, analysisNames[k], got[k], want[k])
				}
			}
		}
		var bin bytes.Buffer
		for _, workers := range []int{1, 4, 16} {
			s := Study{Seed: 42, NMain: n, NStudent: 52, Workers: workers}
			run := s.Run()
			check("Study.Run", workers, run)
			if bin.Len() == 0 {
				if err := run.Main.Cols.EncodeBinary(&bin, colstore.IOOptions{}); err != nil {
					t.Fatalf("EncodeBinary: %v", err)
				}
			}
			cols, _, err := colstore.Load(quiz.Columns(), bytes.NewReader(bin.Bytes()), colstore.IOOptions{Workers: workers})
			if err != nil {
				t.Fatalf("n=%d workers=%d: Load: %v", n, workers, err)
			}
			loaded, err := s.ResultsFromColumns(cols, nil)
			if err != nil {
				t.Fatalf("n=%d workers=%d: ResultsFromColumns: %v", n, workers, err)
			}
			check("ResultsFromColumns", workers, loaded)
		}
	}
}
