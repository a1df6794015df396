// Package vcf reads and writes a minimal VCF-style text encoding of binary
// genotype matrices, with optional Ed25519 file signatures. The paper's
// threat model assumes the trusted modules can "check the authenticity of
// signed VCF files"; this package provides that ingestion path and the
// genomegen tool uses it to materialize synthetic datasets.
//
// The encoding is deliberately small: a haploid GT field per individual,
// one line per SNP, which matches the paper's 0/1 minor-allele encoding
// (Table 1). It is not a general-purpose VCF parser.
package vcf

import (
	"bufio"
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gendpr/internal/genome"
	"gendpr/internal/seal"
)

const (
	headerFormat    = "##fileformat=VCFv4.2"
	headerSource    = "##source=gendpr"
	signaturePrefix = "##gendpr-signature="
	columnHeader    = "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT"
)

var (
	// ErrBadFormat is returned for structurally invalid files.
	ErrBadFormat = errors.New("vcf: malformed file")

	// ErrBadSignature is returned when signature verification fails.
	ErrBadSignature = errors.New("vcf: signature verification failed")

	// ErrNoSignature is returned when a signature was required but absent.
	ErrNoSignature = errors.New("vcf: file is not signed")
)

// Write encodes the matrix as VCF text: one record per SNP position with a
// haploid GT column per individual.
func Write(w io.Writer, m *genome.Matrix) error {
	bw := bufio.NewWriter(w)
	if err := writeBody(bw, m); err != nil {
		return err
	}
	return bw.Flush()
}

func writeBody(w io.Writer, m *genome.Matrix) error {
	var sb strings.Builder
	sb.WriteString(headerFormat)
	sb.WriteByte('\n')
	sb.WriteString(headerSource)
	sb.WriteByte('\n')
	sb.WriteString(columnHeader)
	for i := 0; i < m.N(); i++ {
		sb.WriteString("\tind")
		sb.WriteString(strconv.Itoa(i))
	}
	sb.WriteByte('\n')
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return fmt.Errorf("vcf: write header: %w", err)
	}

	line := make([]byte, 0, 64+2*m.N())
	for l := 0; l < m.L(); l++ {
		line = line[:0]
		line = append(line, '1', '\t')
		line = strconv.AppendInt(line, int64(l+1), 10)
		line = append(line, "\trs"...)
		line = strconv.AppendInt(line, int64(l), 10)
		line = append(line, "\tA\tG\t.\tPASS\t.\tGT"...)
		for i := 0; i < m.N(); i++ {
			if m.Get(i, l) {
				line = append(line, '\t', '1')
			} else {
				line = append(line, '\t', '0')
			}
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return fmt.Errorf("vcf: write record %d: %w", l, err)
		}
	}
	return nil
}

// EstimateBytes returns the exact size of the VCF encoding Write would
// produce for a matrix, without serializing it. The federation uses it as
// the "what shipping the genomes would cost" baseline of the bandwidth
// analysis (the paper compares against multi-gigabyte variant files, not a
// bit-packed minimum).
func EstimateBytes(m *genome.Matrix) int64 {
	// Header lines.
	size := int64(len(headerFormat) + 1 + len(headerSource) + 1 + len(columnHeader) + 1)
	for i := 0; i < m.N(); i++ {
		size += int64(len("\tind") + digits(i))
	}
	// Records: "1\t<pos>\trs<l>\tA\tG\t.\tPASS\t.\tGT" + "\t<0|1>"*N + "\n".
	for l := 0; l < m.L(); l++ {
		size += int64(2 + digits(l+1) + 3 + digits(l) + len("\tA\tG\t.\tPASS\t.\tGT") + 2*m.N() + 1)
	}
	return size
}

func digits(v int) int {
	if v == 0 {
		return 1
	}
	d := 0
	for v > 0 {
		d++
		v /= 10
	}
	return d
}

// Read parses VCF text produced by Write (a leading signature line, if any,
// is ignored). Each record is packed into its SNP's column as it is parsed.
func Read(r io.Reader) (*genome.Matrix, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<26)

	var m *genome.Matrix
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "##"):
			continue
		case strings.HasPrefix(line, "#CHROM"):
			fields := strings.Split(line, "\t")
			if len(fields) < 9 {
				return nil, fmt.Errorf("%w: truncated column header", ErrBadFormat)
			}
			if m != nil {
				return nil, fmt.Errorf("%w: second column header", ErrBadFormat)
			}
			m = genome.NewMatrix(len(fields)-9, 0)
		default:
			if m == nil {
				return nil, fmt.Errorf("%w: record before column header", ErrBadFormat)
			}
			fields := strings.Split(line, "\t")
			if len(fields) != 9+m.N() {
				return nil, fmt.Errorf("%w: record has %d fields, want %d", ErrBadFormat, len(fields), 9+m.N())
			}
			l := m.AppendColumn()
			for i, gt := range fields[9:] {
				switch gt {
				case "0":
				case "1":
					m.Set(i, l, true)
				default:
					return nil, fmt.Errorf("%w: genotype %q", ErrBadFormat, gt)
				}
			}
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("vcf: read: %w", err)
	}
	if m == nil {
		return nil, fmt.Errorf("%w: missing column header", ErrBadFormat)
	}
	return m, nil
}

// WriteSigned writes the VCF body prefixed with an Ed25519 signature line
// over the exact body bytes.
func WriteSigned(w io.Writer, m *genome.Matrix, key *seal.SigningKey) error {
	var body strings.Builder
	if err := writeBody(&body, m); err != nil {
		return err
	}
	sig := key.Sign([]byte(body.String()))
	if _, err := fmt.Fprintf(w, "%s%s\n", signaturePrefix, hex.EncodeToString(sig)); err != nil {
		return fmt.Errorf("vcf: write signature: %w", err)
	}
	if _, err := io.WriteString(w, body.String()); err != nil {
		return fmt.Errorf("vcf: write body: %w", err)
	}
	return nil
}

// ReadSigned verifies the leading signature line against the public key and
// parses the body. It fails with ErrNoSignature when the file is unsigned
// and ErrBadSignature when verification fails.
func ReadSigned(r io.Reader, pub ed25519.PublicKey) (*genome.Matrix, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("vcf: read: %w", err)
	}
	nl := indexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: empty file", ErrBadFormat)
	}
	first := string(data[:nl])
	if !strings.HasPrefix(first, signaturePrefix) {
		return nil, ErrNoSignature
	}
	sig, err := hex.DecodeString(strings.TrimPrefix(first, signaturePrefix))
	if err != nil {
		return nil, fmt.Errorf("%w: undecodable signature", ErrBadFormat)
	}
	body := data[nl+1:]
	if !seal.Verify(pub, body, sig) {
		return nil, ErrBadSignature
	}
	return Read(strings.NewReader(string(body)))
}

func indexByte(b []byte, c byte) int {
	for i, v := range b {
		if v == c {
			return i
		}
	}
	return -1
}
