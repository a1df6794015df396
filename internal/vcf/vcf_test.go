package vcf

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"gendpr/internal/genome"
	"gendpr/internal/seal"
)

func sampleMatrix(t testing.TB) *genome.Matrix {
	t.Helper()
	m := genome.NewMatrix(4, 6)
	m.Set(0, 0, true)
	m.Set(1, 2, true)
	m.Set(2, 5, true)
	m.Set(3, 3, true)
	m.Set(3, 5, true)
	return m
}

func TestWriteReadRoundTrip(t *testing.T) {
	ms := []*genome.Matrix{sampleMatrix(t)}
	// Shapes on both sides of a column's word boundary, and no SNPs at all.
	for _, n := range []int{1, 63, 64, 65} {
		for _, l := range []int{0, 1, 65} {
			m := genome.NewMatrix(n, l)
			for c := 0; c < l; c++ {
				for i := 0; i < n; i++ {
					if (i*7+c*3)%5 < 2 {
						m.Set(i, c, true)
					}
				}
			}
			ms = append(ms, m)
		}
	}
	for _, m := range ms {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("%dx%d: Write: %v", m.N(), m.L(), err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("%dx%d: Read: %v", m.N(), m.L(), err)
		}
		if !got.Equal(m) || got.N() != m.N() || got.L() != m.L() {
			t.Fatalf("%dx%d: round trip lost genotypes", m.N(), m.L())
		}
		if !slices.Equal(got.AlleleCounts(), m.AlleleCounts()) {
			t.Fatalf("%dx%d: read counts %v, want %v", m.N(), m.L(), got.AlleleCounts(), m.AlleleCounts())
		}
	}
}

func TestWriteProducesValidHeader(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleMatrix(t)); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, "##fileformat=VCFv4.2\n") {
		t.Error("missing fileformat header")
	}
	if !strings.Contains(text, "#CHROM\tPOS\tID\tREF\tALT") {
		t.Error("missing column header")
	}
	if !strings.Contains(text, "ind0") || !strings.Contains(text, "ind3") {
		t.Error("missing individual columns")
	}
	// 6 SNPs → 6 records.
	records := 0
	for _, line := range strings.Split(text, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			records++
		}
	}
	if records != 6 {
		t.Errorf("%d records, want 6", records)
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no header":           "1\t1\trs0\tA\tG\t.\tPASS\t.\tGT\t0\n",
		"short column header": "#CHROM\tPOS\n",
		"bad genotype":        "##x\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tind0\n1\t1\trs0\tA\tG\t.\tPASS\t.\tGT\t2\n",
		"wrong field count":   "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tind0\n1\t1\trs0\tA\tG\t.\tPASS\t.\tGT\t0\t1\n",
		"empty":               "",
		"second header":       "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tind0\n1\t1\trs0\tA\tG\t.\tPASS\t.\tGT\t1\n#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\n",
	}
	for name, text := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(text)); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("got %v, want ErrBadFormat", err)
			}
		})
	}
}

func TestReadEmptyCohort(t *testing.T) {
	// Zero individuals, zero SNPs is structurally valid.
	text := "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\n"
	m, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 0 || m.L() != 0 {
		t.Fatalf("shape %dx%d, want 0x0", m.N(), m.L())
	}
}

func TestSignedRoundTrip(t *testing.T) {
	key, err := seal.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	m := sampleMatrix(t)
	var buf bytes.Buffer
	if err := WriteSigned(&buf, m, key); err != nil {
		t.Fatalf("WriteSigned: %v", err)
	}
	got, err := ReadSigned(bytes.NewReader(buf.Bytes()), key.Public())
	if err != nil {
		t.Fatalf("ReadSigned: %v", err)
	}
	if !got.Equal(m) {
		t.Fatal("signed round trip lost genotypes")
	}
}

func TestSignedRejectsTampering(t *testing.T) {
	key, _ := seal.NewSigningKey()
	m := sampleMatrix(t)
	var buf bytes.Buffer
	if err := WriteSigned(&buf, m, key); err != nil {
		t.Fatal(err)
	}
	// Flip one genotype character in the body.
	data := buf.Bytes()
	idx := bytes.LastIndexByte(data, '0')
	data[idx] = '1'
	if _, err := ReadSigned(bytes.NewReader(data), key.Public()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("got %v, want ErrBadSignature", err)
	}
}

func TestSignedRejectsWrongKey(t *testing.T) {
	key, _ := seal.NewSigningKey()
	other, _ := seal.NewSigningKey()
	var buf bytes.Buffer
	if err := WriteSigned(&buf, sampleMatrix(t), key); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSigned(bytes.NewReader(buf.Bytes()), other.Public()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("got %v, want ErrBadSignature", err)
	}
}

func TestSignedRejectsUnsigned(t *testing.T) {
	key, _ := seal.NewSigningKey()
	var buf bytes.Buffer
	if err := Write(&buf, sampleMatrix(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSigned(bytes.NewReader(buf.Bytes()), key.Public()); !errors.Is(err, ErrNoSignature) {
		t.Fatalf("got %v, want ErrNoSignature", err)
	}
}

func TestUnsignedReaderSkipsSignatureLine(t *testing.T) {
	key, _ := seal.NewSigningKey()
	m := sampleMatrix(t)
	var buf bytes.Buffer
	if err := WriteSigned(&buf, m, key); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read on signed file: %v", err)
	}
	if !got.Equal(m) {
		t.Fatal("signature line broke plain parsing")
	}
}

func TestEstimateBytesExact(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {4, 6}, {13, 29}, {100, 11}} {
		cohort, err := genome.Generate(genome.DefaultGeneratorConfig(shape[1], shape[0], 9))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, cohort.Case); err != nil {
			t.Fatal(err)
		}
		if got, want := EstimateBytes(cohort.Case), int64(buf.Len()); got != want {
			t.Errorf("shape %v: EstimateBytes=%d, actual %d", shape, got, want)
		}
	}
}

func TestGeneratedCohortRoundTrip(t *testing.T) {
	cohort, err := genome.Generate(genome.DefaultGeneratorConfig(64, 50, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, cohort.Case); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(cohort.Case) {
		t.Fatal("generated cohort round trip failed")
	}
}
