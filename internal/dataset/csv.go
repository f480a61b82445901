package dataset

import (
	"encoding/csv"
	"fmt"
	"io"

	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/sortedkeys"
)

// This file provides the CSV adoption path: a client that logged its
// inference instances (or any labeled dataset) as CSV can load it into a
// Dataset without touching the synthetic generators.

// WriteCSV serializes a dataset as CSV: header row of attribute names plus a
// final "label" column; cells carry value strings.
func WriteCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, d.Schema.NumFeatures()+1)
	for _, a := range d.Schema.Attrs {
		header = append(header, a.Name)
	}
	header = append(header, "label")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, li := range d.Instances {
		for i, v := range li.X {
			row[i] = d.Schema.Attrs[i].Values[v]
		}
		row[len(row)-1] = d.Schema.Labels[li.Y]
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads a labeled dataset from CSV written by WriteCSV (or any CSV
// with a header whose last column is the label). Every column is treated as
// categorical; domains and the label space are the sorted sets of observed
// values. The 70/30 split is rebuilt deterministically from the row order.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("dataset: CSV needs at least one feature column and a label column")
	}
	nAttrs := len(header) - 1

	var rows [][]string
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV row %d: %w", len(rows)+2, err)
		}
		rows = append(rows, rec)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: CSV has no data rows")
	}

	// Collect sorted domains per column.
	domains := make([]map[string]bool, nAttrs)
	for a := range domains {
		domains[a] = map[string]bool{}
	}
	labels := map[string]bool{}
	for _, rec := range rows {
		for a := 0; a < nAttrs; a++ {
			domains[a][rec[a]] = true
		}
		labels[rec[nAttrs]] = true
	}
	attrs := make([]feature.Attribute, nAttrs)
	codes := make([]map[string]feature.Value, nAttrs)
	for a := 0; a < nAttrs; a++ {
		vals := sortedkeys.Of(domains[a])
		attrs[a] = feature.Attribute{Name: header[a], Values: vals}
		codes[a] = make(map[string]feature.Value, len(vals))
		for i, v := range vals {
			codes[a][v] = feature.Value(i)
		}
	}
	labelList := sortedkeys.Of(labels)
	labelCode := make(map[string]feature.Label, len(labelList))
	for i, l := range labelList {
		labelCode[l] = feature.Label(i)
	}
	schema, err := feature.NewSchema(attrs, labelList)
	if err != nil {
		return nil, err
	}

	d := &Dataset{Name: "csv", Schema: schema, Instances: make([]feature.Labeled, len(rows))}
	for i, rec := range rows {
		x := make(feature.Instance, nAttrs)
		for a := 0; a < nAttrs; a++ {
			x[a] = codes[a][rec[a]]
		}
		d.Instances[i] = feature.Labeled{X: x, Y: labelCode[rec[nAttrs]]}
	}
	cut := len(rows) * 7 / 10
	for i := range rows {
		if i < cut {
			d.TrainIdx = append(d.TrainIdx, i)
		} else {
			d.TestIdx = append(d.TestIdx, i)
		}
	}
	return d, nil
}
