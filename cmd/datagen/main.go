// Command datagen materializes one of the synthetic benchmark datasets and
// writes it as CSV (header row, value strings, label in the last column) so
// the data can be inspected or consumed outside this repository.
//
// Usage:
//
//	datagen -dataset loan [-size 0] [-seed 0] [-o loan.csv]
package main

import (
	"bufio"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"github.com/xai-db/relativekeys/internal/dataset"
	"github.com/xai-db/relativekeys/internal/em"
)

func main() {
	var (
		dsName = flag.String("dataset", "loan", "dataset name: "+strings.Join(append(dataset.GeneralNames(), em.Names()...), "|"))
		size   = flag.Int("size", 0, "row-count override (0 = paper size)")
		seed   = flag.Int64("seed", 0, "generation seed (0 = dataset default)")
		out    = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	var f *os.File
	w := bufio.NewWriter(os.Stdout)
	if *out != "" {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		w = bufio.NewWriter(f)
	}

	isEM := false
	for _, n := range em.Names() {
		if n == *dsName {
			isEM = true
		}
	}
	var err error
	if isEM {
		err = writeEM(w, *dsName, *size, *seed)
	} else {
		err = writeGeneral(w, *dsName, *size, *seed)
	}
	if err != nil {
		log.Fatal(err)
	}

	// A deferred, unchecked flush/close would silently truncate the dataset
	// on a full disk; fail loudly instead.
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if f != nil {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

func writeGeneral(w io.Writer, name string, size int, seed int64) error {
	ds, err := dataset.Load(name, dataset.Options{Size: size, Seed: seed})
	if err != nil {
		return err
	}
	if err := dataset.WriteCSV(w, ds); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d rows × %d features of %s\n", len(ds.Instances), ds.Schema.NumFeatures(), name)
	return nil
}

func writeEM(w io.Writer, name string, size int, seed int64) error {
	ds, err := em.Load(name, em.Options{Size: size, Seed: seed})
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	header := []string{}
	for _, a := range ds.Attrs {
		header = append(header, "left_"+a)
	}
	for _, a := range ds.Attrs {
		header = append(header, "right_"+a)
	}
	for _, a := range ds.Schema.Attrs {
		header = append(header, a.Name)
	}
	header = append(header, "label")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, p := range ds.Pairs {
		row := append([]string{}, p.A.Values...)
		row = append(row, p.B.Values...)
		for i, v := range p.X {
			row = append(row, ds.Schema.Attrs[i].Values[v])
		}
		row = append(row, ds.Schema.Labels[p.Y])
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d pairs of %s (%d matches)\n", len(ds.Pairs), name, ds.NumMatch)
	return nil
}
