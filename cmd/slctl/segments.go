package main

// slctl segments inspects a durable warehouse data directory's cold segment
// files offline: event count and time envelope, chunk count, and the on-disk
// footprint against the row-format (the WAL's) encoding of the same events —
// which is how much the columnar layout actually saves. Reads are read-only;
// the directory may belong to a stopped server. A file in a format this
// build no longer reads stops the dump with OpenSegment's error, which says
// how to convert it.

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"

	"streamloader/internal/persist"
)

func runSegments(argv []string) {
	fs := flag.NewFlagSet("segments", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `usage: slctl segments [flags] <data-dir>

dump the cold segment files under a warehouse data directory

flags:
`)
		fs.PrintDefaults()
	}
	var (
		chunks = fs.Bool("chunks", false, "also print one line per chunk")
		decode = fs.Bool("decode", true, "decode events to report row-equivalent bytes (false: header-only, faster)")
	)
	_ = fs.Parse(argv)
	if fs.NArg() != 1 {
		fs.Usage()
		os.Exit(2)
	}
	dir := fs.Arg(0)

	files, _, err := persist.ListSegments(dir)
	if err != nil {
		log.Fatalf("segments: %v", err)
	}
	// Shards keep their segments in per-shard subdirectories; sweep one
	// level down too so pointing at the data dir root just works.
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Fatalf("segments: %v", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub, _, err := persist.ListSegments(filepath.Join(dir, e.Name()))
		if err != nil {
			log.Fatalf("segments: %v", err)
		}
		files = append(files, sub...)
	}
	sort.Strings(files)
	if len(files) == 0 {
		fmt.Println("no segment files found")
		return
	}

	var totDisk, totRow int64
	var totEvents int
	for _, path := range files {
		info, _, err := persist.OpenSegment(path)
		if err != nil {
			log.Fatalf("segments: %v", err)
		}
		rel := path
		if r, err := filepath.Rel(dir, path); err == nil {
			rel = r
		}
		fmt.Printf("%s\n", rel)
		fmt.Printf("  events %d  chunks %d\n", info.Count, len(info.Sparse))
		fmt.Printf("  span %s .. %s\n",
			info.Head.Time.UTC().Format(time.RFC3339Nano),
			info.Tail.Time.UTC().Format(time.RFC3339Nano))
		totDisk += info.Bytes
		totEvents += info.Count
		if *decode {
			evs, _, err := info.ReadRangeProjected(nil, 0, info.Count, persist.FullProjection)
			if err != nil {
				log.Fatalf("segments: %s: %v", rel, err)
			}
			row := persist.RowEncodedBytes(evs)
			totRow += row
			fmt.Printf("  disk %d B (%.1f B/event)  row-equivalent %d B  ratio %.2f\n",
				info.Bytes, float64(info.Bytes)/float64(info.Count), row,
				float64(info.Bytes)/float64(row))
		} else {
			fmt.Printf("  disk %d B (%.1f B/event)\n",
				info.Bytes, float64(info.Bytes)/float64(info.Count))
		}
		if *chunks {
			for i, se := range info.Sparse {
				fmt.Printf("  chunk %3d  pos %6d  %s  off %8d  crc %08x\n",
					i, se.Pos, se.Time.UTC().Format(time.RFC3339), se.Off, se.CRC)
			}
		}
	}
	if len(files) > 1 {
		fmt.Printf("total: %d files  %d events  disk %d B", len(files), totEvents, totDisk)
		if *decode && totRow > 0 {
			fmt.Printf("  row-equivalent %d B  ratio %.2f", totRow, float64(totDisk)/float64(totRow))
		}
		fmt.Println()
	}
}
