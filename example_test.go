package parparaw_test

// Runnable godoc examples for the public API. Every snippet the README
// shows has a compiled, output-checked counterpart here, so `go test`
// keeps the documentation honest.

import (
	"fmt"
	"log"
	"strings"

	parparaw "repro"
)

// Example is the one-shot entry point: parse a small CSV, let the
// parser infer the column types from the data (§4.3), and read the
// Arrow-style columnar output.
func Example() {
	input := []byte("city,visits,revenue\noslo,3,1.5\nbergen,7,2.25\n")
	res, err := parparaw.Parse(input, parparaw.Options{HasHeader: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Table.Schema())

	revenue := res.Table.ColumnByName("revenue")
	sum := 0.0
	for i := 0; i < revenue.Len(); i++ {
		if !revenue.IsNull(i) {
			sum += revenue.Float64(i)
		}
	}
	fmt.Printf("%d records, revenue %.2f\n", res.Table.NumRows(), sum)
	// Output:
	// schema<city:string, visits:int64, revenue:float64>
	// 2 records, revenue 3.75
}

// ExampleEngine_Parse is the serving-layer shape: compile the
// configuration once into an Engine, then serve any number of parses —
// including concurrent ones — with recycled device arenas and no
// per-call setup.
func ExampleEngine_Parse() {
	engine, err := parparaw.NewEngine(parparaw.Options{
		HasHeader: true,
		Schema: parparaw.NewSchema(
			parparaw.Field{Name: "ts", Type: parparaw.TimestampMicros},
			parparaw.Field{Name: "fare", Type: parparaw.Float64},
		),
	})
	if err != nil {
		log.Fatal(err) // configuration errors surface here, before traffic
	}

	res, err := engine.Parse([]byte("ts,fare\n2020-05-17 08:30:00,14.5\n2020-05-17 09:00:00.250000,8.25\n"))
	if err != nil {
		log.Fatal(err)
	}
	fare := res.Table.ColumnByName("fare")
	for i := 0; i < fare.Len(); i++ {
		fmt.Printf("%s  %5.2f\n", res.Table.ColumnByName("ts").Time(i).Format("15:04:05"), fare.Float64(i))
	}
	// Output:
	// 08:30:00  14.50
	// 09:00:00   8.25
}

// ExampleStreamReader parses straight from an io.Reader through the
// §4.4 streaming pipeline: fixed-size partitions are pulled from the
// reader as the parses consume them, records straddling partition
// boundaries are carried over intact, and Combined stitches the
// per-partition tables into one — cell for cell what Parse would have
// produced on the whole input.
func ExampleStreamReader() {
	input := "id,word\n1,alpha\n2,beta\n3,gamma\n4,delta\n"
	res, err := parparaw.StreamReader(strings.NewReader(input), parparaw.StreamOptions{
		Options: parparaw.Options{HasHeader: true},
		// Tiny partitions, to force several even here.
		StreamConfig: parparaw.StreamConfig{PartitionSize: 12},
	})
	if err != nil {
		log.Fatal(err)
	}
	table, err := res.Combined()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d records in %d partitions\n", table.NumRows(), res.Stats.Partitions)
	word := table.ColumnByName("word")
	fmt.Println(word.StringValue(0), word.StringValue(word.Len()-1))
	// Output:
	// 4 records in 4 partitions
	// alpha delta
}

// ExampleNewCSV parses a non-default dialect: semicolon-delimited
// records with '#' comment lines — the "more involved parsing rules"
// that break quote-counting splitters but are just another DFA here.
func ExampleNewCSV() {
	format := parparaw.NewCSV(parparaw.CSV{Delimiter: ';', Quote: '"', Comment: '#'})
	input := []byte("# generated 2020-05-17\n10;\"a;b\"\n20;plain\n")
	res, err := parparaw.Parse(input, parparaw.Options{Format: format})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < res.Table.NumRows(); i++ {
		fmt.Println(res.Table.Column(0).Int64(i), res.Table.Column(1).StringValue(i))
	}
	// Output:
	// 10 a;b
	// 20 plain
}

// ExampleNewJSONL parses JSON-Lines through the same format-generic
// FSM pipeline as CSV: top-level keys and values become alternating
// columns, quoted strings shed their quotes but keep escape sequences
// raw, and nested containers stay opaque field bytes. With HasHeader,
// column names come from the first record's keys — without consuming
// the record.
func ExampleNewJSONL() {
	format, err := parparaw.NewJSONL(parparaw.JSONL{})
	if err != nil {
		log.Fatal(err)
	}
	input := []byte(`{"city":"Berlin","pop":3769495,"geo":[52.5,13.4]}
{"city":"Paris","pop":2161000,"geo":[48.9,2.3]}
`)
	res, err := parparaw.Parse(input, parparaw.Options{Format: format, HasHeader: true})
	if err != nil {
		log.Fatal(err)
	}
	city := res.Table.ColumnByName("city")
	pop := res.Table.ColumnByName("pop")
	geo := res.Table.ColumnByName("geo")
	for i := 0; i < res.Table.NumRows(); i++ {
		fmt.Println(city.StringValue(i), pop.Int64(i), geo.StringValue(i))
	}
	// Output:
	// Berlin 3769495 [52.5,13.4]
	// Paris 2161000 [48.9,2.3]
}
