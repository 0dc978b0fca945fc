// Streaming: parse a larger-than-device-memory input through the
// end-to-end streaming pipeline of §4.4 — partitions are read, parsed
// several at a time, and emitted in input order, with the read of the
// next partition overlapping the parses in flight; records straddling
// partition boundaries are carried over intact. Run with:
//
//	go run ./examples/streaming
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"strings"

	parparaw "repro"
)

func main() {
	// Synthesise ~4 MB of quoted review-style CSV. The text fields embed
	// commas and record delimiters, so partition boundaries routinely
	// fall inside quoted strings and mid-record — the carry-over and the
	// context machinery both get exercised.
	input := generate(4 << 20)

	// StreamReader pulls fixed-size partitions from any io.Reader — an
	// os.File or network source works identically, and the full input is
	// never buffered in one piece (peak host memory stays at
	// O(PartitionSize + carry-over) however large the source is).
	res, err := parparaw.StreamReader(bytes.NewReader(input), parparaw.StreamOptions{
		StreamConfig: parparaw.StreamConfig{PartitionSize: 256 << 10}, // 256 KB partitions
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("streamed %s through %d partitions\n",
		sizeOf(len(input)), res.Stats.Partitions)
	fmt.Printf("records: %d   max carry-over: %d bytes\n",
		res.NumRows(), res.Stats.MaxCarryOver)
	fmt.Printf("%d bytes in, %d bytes of columns out\n",
		res.Stats.InputBytes, res.Stats.OutputBytes)
	fmt.Printf("parse busy, summed over %d in-flight parses: %v of %v end-to-end\n\n",
		res.Stats.InFlight, res.Stats.ParseBusy, res.Stats.Duration)

	// Per-partition tables concatenate into one.
	table, err := res.Combined()
	if err != nil {
		log.Fatal(err)
	}
	stars := table.Column(1)
	var sum, n float64
	for i := 0; i < stars.Len(); i++ {
		sum += float64(stars.Int64(i))
		n++
	}
	fmt.Printf("average stars across all partitions: %.2f\n", sum/n)
}

// generate builds id,stars,"text" records until size bytes are reached.
func generate(size int) []byte {
	rng := rand.New(rand.NewSource(7))
	words := []string{"good", "bad, actually", "fine", "stellar", "meh", "would\nreturn"}
	var sb strings.Builder
	id := 0
	for sb.Len() < size {
		id++
		fmt.Fprintf(&sb, "%d,%d,\"", id, 1+rng.Intn(5))
		for w := 0; w < 20+rng.Intn(60); w++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		sb.WriteString("\"\n")
	}
	return []byte(sb.String())
}

func sizeOf(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	}
	return fmt.Sprintf("%d KB", n>>10)
}
