package catalog

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"whereroam/internal/apn"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
)

// csvHeader is the CSV layout of the devices-catalog interchange
// form. Multi-valued fields (visited networks, APNs) are
// semicolon-joined inside one CSV cell.
var csvHeader = []string{
	"device", "day", "sim", "tac", "visited", "events", "failed",
	"calls", "call_seconds", "bytes", "radio_flags", "data_rats",
	"voice_rats", "apns", "lat", "lon", "gyration_km", "has_location",
}

// CSVWriter emits catalog records in the WriteCSV interchange layout
// one record at a time — the out-of-core counterpart of
// Catalog.WriteCSV for producers (StreamMNO sinks, replay tools) that
// never materialize a Catalog. The meta and header rows are written by
// NewCSVWriter; the caller streams records through Write and must
// Flush once at the end.
type CSVWriter struct {
	cw  *csv.Writer
	row []string
}

// NewCSVWriter starts a catalog CSV stream on w, writing the
// comment-style meta row (host, days) and the column header
// immediately.
func NewCSVWriter(w io.Writer, host mccmnc.PLMN, days int) (*CSVWriter, error) {
	cw := csv.NewWriter(w)
	meta := []string{"#host", host.Concat(), "days", strconv.Itoa(days)}
	if err := cw.Write(meta); err != nil {
		return nil, err
	}
	if err := cw.Write(csvHeader); err != nil {
		return nil, err
	}
	return &CSVWriter{cw: cw, row: make([]string, len(csvHeader))}, nil
}

// Write appends one record row.
func (w *CSVWriter) Write(r *DailyRecord) error {
	visited := make([]string, len(r.Visited))
	for j, v := range r.Visited {
		visited[j] = v.Concat()
	}
	apns := make([]string, len(r.APNs))
	for j, a := range r.APNs {
		apns[j] = a.String()
	}
	row := w.row
	row[0] = r.Device.String()
	row[1] = strconv.Itoa(r.Day)
	row[2] = r.SIM.Concat()
	row[3] = r.TAC.String()
	row[4] = strings.Join(visited, ";")
	row[5] = strconv.Itoa(r.Events)
	row[6] = strconv.Itoa(r.FailedEvents)
	row[7] = strconv.Itoa(r.Calls)
	row[8] = strconv.FormatFloat(r.CallSeconds, 'f', 1, 64)
	row[9] = strconv.FormatUint(r.Bytes, 10)
	row[10] = strconv.Itoa(int(r.RadioFlags))
	row[11] = strconv.Itoa(int(r.DataRATs))
	row[12] = strconv.Itoa(int(r.VoiceRATs))
	row[13] = strings.Join(apns, ";")
	row[14] = strconv.FormatFloat(r.Centroid.Lat, 'f', 6, 64)
	row[15] = strconv.FormatFloat(r.Centroid.Lon, 'f', 6, 64)
	row[16] = strconv.FormatFloat(r.GyrationKm, 'f', 4, 64)
	row[17] = strconv.FormatBool(r.HasLocation)
	return w.cw.Write(row)
}

// Flush drains the underlying csv.Writer and reports any deferred
// write error. Call it once after the last Write.
func (w *CSVWriter) Flush() error {
	w.cw.Flush()
	return w.cw.Error()
}

// WriteCSV writes the catalog (header line carries host and days as a
// comment-style first record). The output is byte-identical to
// streaming the same records through a CSVWriter.
func (c *Catalog) WriteCSV(w io.Writer) error {
	cw, err := NewCSVWriter(w, c.Host, c.Days)
	if err != nil {
		return err
	}
	for i := range c.Records {
		if err := cw.Write(&c.Records[i]); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// ReadCSV reads a catalog in the WriteCSV layout. It rejects, with the
// offending line, any row no writer produces: a day outside the meta
// row's window, a negative count, a non-finite float, a centroid off
// the globe, a negative call time or gyration, or a device that
// reappears after another device's rows (Records keeps each device's
// records as one run).
func ReadCSV(r io.Reader) (*Catalog, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	meta, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("catalog: reading meta row: %w", err)
	}
	if len(meta) != 4 || meta[0] != "#host" {
		return nil, fmt.Errorf("catalog: missing #host meta row")
	}
	host, err := mccmnc.Parse(meta[1])
	if err != nil {
		return nil, fmt.Errorf("catalog: meta host: %w", err)
	}
	days, err := strconv.Atoi(meta[3])
	if err != nil || days <= 0 {
		return nil, fmt.Errorf("catalog: meta days %q", meta[3])
	}
	if _, err := cr.Read(); err != nil { // header row
		return nil, fmt.Errorf("catalog: reading header: %w", err)
	}
	out := &Catalog{Host: host, Days: days}
	ended := map[identity.DeviceID]bool{} // devices whose run is over
	// Errors name file lines: the meta row is line 1, the header 2.
	line := 2
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("catalog: line %d: %w", line, err)
		}
		if len(row) != len(csvHeader) {
			return nil, fmt.Errorf("catalog: line %d: %d fields, want %d", line, len(row), len(csvHeader))
		}
		rec, err := parseCSVRow(row, days)
		if err != nil {
			return nil, fmt.Errorf("catalog: line %d: %w", line, err)
		}
		if n := len(out.Records); n > 0 && rec.Device != out.Records[n-1].Device {
			ended[out.Records[n-1].Device] = true
			if ended[rec.Device] {
				return nil, fmt.Errorf("catalog: line %d: device %v reappears after another device's rows", line, rec.Device)
			}
		}
		out.Records = append(out.Records, rec)
	}
}

func parseCSVRow(row []string, days int) (DailyRecord, error) {
	var r DailyRecord
	dev, err := identity.ParseDeviceID(row[0])
	if err != nil {
		return r, err
	}
	r.Device = dev
	if r.Day, err = strconv.Atoi(row[1]); err != nil {
		return r, fmt.Errorf("day: %w", err)
	}
	if r.Day < 0 || r.Day >= days {
		return r, fmt.Errorf("day %d outside the %d-day window", r.Day, days)
	}
	if r.SIM, err = mccmnc.Parse(row[2]); err != nil {
		return r, err
	}
	if r.TAC, err = identity.ParseTAC(row[3]); err != nil {
		return r, err
	}
	if row[4] != "" {
		for _, v := range strings.Split(row[4], ";") {
			p, err := mccmnc.Parse(v)
			if err != nil {
				return r, err
			}
			r.Visited = append(r.Visited, p)
		}
	}
	if r.Events, err = parseCount("events", row[5]); err != nil {
		return r, err
	}
	if r.FailedEvents, err = parseCount("failed", row[6]); err != nil {
		return r, err
	}
	if r.Calls, err = parseCount("calls", row[7]); err != nil {
		return r, err
	}
	if r.CallSeconds, err = parseFloatIn("call_seconds", row[8], 0, math.Inf(1)); err != nil {
		return r, err
	}
	if r.Bytes, err = strconv.ParseUint(row[9], 10, 64); err != nil {
		return r, fmt.Errorf("bytes: %w", err)
	}
	flags, err := strconv.Atoi(row[10])
	if err != nil {
		return r, fmt.Errorf("radio_flags: %w", err)
	}
	r.RadioFlags = radio.RATSet(flags)
	if flags, err = strconv.Atoi(row[11]); err != nil {
		return r, fmt.Errorf("data_rats: %w", err)
	}
	r.DataRATs = radio.RATSet(flags)
	if flags, err = strconv.Atoi(row[12]); err != nil {
		return r, fmt.Errorf("voice_rats: %w", err)
	}
	r.VoiceRATs = radio.RATSet(flags)
	if row[13] != "" {
		for _, s := range strings.Split(row[13], ";") {
			a, err := apn.Parse(s)
			if err != nil {
				return r, err
			}
			r.APNs = append(r.APNs, a)
		}
	}
	if r.Centroid.Lat, err = parseFloatIn("lat", row[14], -90, 90); err != nil {
		return r, err
	}
	if r.Centroid.Lon, err = parseFloatIn("lon", row[15], -180, 180); err != nil {
		return r, err
	}
	if r.GyrationKm, err = parseFloatIn("gyration_km", row[16], 0, math.Inf(1)); err != nil {
		return r, err
	}
	if r.HasLocation, err = strconv.ParseBool(row[17]); err != nil {
		return r, fmt.Errorf("has_location: %w", err)
	}
	return r, nil
}

// parseCount parses a non-negative integer column.
func parseCount(column, s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", column, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("%s: negative count %d", column, n)
	}
	return n, nil
}

// parseFloatIn parses a float column and requires it to be finite and
// within [lo, hi].
func parseFloatIn(column, s string, lo, hi float64) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", column, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%s: %v is not finite", column, v)
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("%s: %v outside [%g, %g]", column, v, lo, hi)
	}
	return v, nil
}
