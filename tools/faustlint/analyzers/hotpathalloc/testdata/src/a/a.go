// Fixture for the hotpathalloc analyzer.
package a

import "fmt"

func sink(args ...interface{}) { _ = args }

// AppendRecord is bound to the zero-alloc contract by its Append* name.
func AppendRecord(buf []byte, v int) []byte {
	buf = append(buf, make([]byte, 8)...) // sanctioned zero-extend: exempt
	tmp := make([]byte, 8)                // want `make\(\) allocates on the AppendRecord hot path`
	_ = tmp
	s := fmt.Sprintf("%d", v) // want `fmt\.Sprintf allocates on the AppendRecord hot path`
	_ = s
	_ = string(buf[:4]) // want `string/\[\]byte conversion copies on the AppendRecord hot path`
	sink(v)             // want `passing int to a variadic interface parameter boxes it`
	sink(&v)            // pointers fit the interface word: no boxing, not flagged
	return buf
}

// HashInto is bound by its *Into suffix.
func HashInto(dst []byte, name string) []byte {
	b := []byte(name) // want `string/\[\]byte conversion copies on the HashInto hot path`
	return append(dst, b...)
}

// EncodedSize is bound by name.
func EncodedSize(payload []byte) int {
	hdr := make([]byte, 4) // want `make\(\) allocates on the EncodedSize hot path`
	return len(hdr) + len(payload)
}

// VerifyBatch is bound by name: the batch dispatch pipeline's verify
// fan-out runs once per dispatched batch.
func VerifyBatch(jobs []int) {
	seen := make(map[int]bool) // want `make\(\) allocates on the VerifyBatch hot path`
	for _, j := range jobs {
		seen[j] = true
	}
}

// popBatch is bound by name; appending into the caller's buffer is fine.
func popBatch(q [][]byte, buf [][]byte) [][]byte {
	return append(buf, q...)
}

//faustlint:hotpath opted in: runs per frame on the decode path
func decodeFrame(b []byte) []byte {
	out := make([]byte, len(b)) // want `make\(\) allocates on the decodeFrame hot path`
	copy(out, b)
	return out
}

// buildReport is not a contract function: allocations are fine.
func buildReport(v int) string {
	parts := make([]string, 0, 4)
	parts = append(parts, fmt.Sprintf("%d", v))
	return parts[0]
}

// AppendError shows the escape hatch on a cold error path.
func AppendError(buf []byte, n int) ([]byte, error) {
	if n > len(buf) {
		//faustlint:ignore hotpathalloc oversize rejection path, never taken on the steady path
		return buf, fmt.Errorf("a: %d exceeds limit", n)
	}
	return buf[:n], nil
}

// Closures inside a contract function run outside the contract body.
func AppendLazy(buf []byte) ([]byte, func() string) {
	report := func() string { return fmt.Sprintf("%d bytes", len(buf)) }
	return buf, report
}
