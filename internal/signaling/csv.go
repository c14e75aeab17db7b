package signaling

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// csvHeader is the column layout of the CSV interchange form,
// mirroring the field list of §3.1.
var csvHeader = []string{"time", "device", "sim", "visited", "rat", "procedure", "result"}

// CSVWriter streams transactions as CSV with a header row.
type CSVWriter struct {
	w      *csv.Writer
	header bool
	row    [7]string
}

// NewCSVWriter returns a CSVWriter targeting w.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: csv.NewWriter(w)}
}

// Write appends one transaction.
func (c *CSVWriter) Write(tx *Transaction) error {
	if !c.header {
		if err := c.w.Write(csvHeader); err != nil {
			return fmt.Errorf("signaling: csv header: %w", err)
		}
		c.header = true
	}
	c.row[0] = tx.Time.UTC().Format(time.RFC3339Nano)
	c.row[1] = tx.Device.String()
	c.row[2] = tx.SIM.Concat()
	c.row[3] = tx.Visited.Concat()
	c.row[4] = strconv.Itoa(int(tx.RAT))
	c.row[5] = tx.Procedure.String()
	c.row[6] = tx.Result.String()
	return c.w.Write(c.row[:])
}

// Flush drains buffered rows and reports any write error.
func (c *CSVWriter) Flush() error {
	c.w.Flush()
	return c.w.Error()
}
