package catalog

import (
	"bytes"
	"strings"
	"testing"

	"whereroam/internal/apn"
	"whereroam/internal/geo"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
)

func sampleCatalog() *Catalog {
	return &Catalog{
		Host: mccmnc.MustParse("23410"),
		Days: 22,
		Records: []DailyRecord{
			{
				Device:       identity.DeviceID(0x01),
				Day:          0,
				SIM:          mccmnc.MustParse("20404"),
				TAC:          identity.TAC(35600001),
				Visited:      []mccmnc.PLMN{mccmnc.MustParse("23410")},
				Events:       42,
				FailedEvents: 3,
				Calls:        1,
				CallSeconds:  30.5,
				Bytes:        12345,
				RadioFlags:   radio.RATSet(radio.Has2G),
				DataRATs:     radio.RATSet(radio.Has2G),
				APNs:         []apn.APN{apn.MustParse("smhp.centricaplc.com.mnc004.mcc204.gprs")},
				Centroid:     geo.Point{Lat: 51.5, Lon: -0.1},
				GyrationKm:   0.25,
				HasLocation:  true,
			},
			{
				Device:  identity.DeviceID(0x02),
				Day:     3,
				SIM:     mccmnc.MustParse("23410"),
				TAC:     identity.TAC(35200001),
				Visited: []mccmnc.PLMN{mccmnc.MustParse("23410"), mccmnc.MustParse("20801")},
				Events:  100,
				Bytes:   999,
			},
		},
	}
}

func TestCatalogCSVRoundTrip(t *testing.T) {
	c := sampleCatalog()
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Host != c.Host || got.Days != c.Days {
		t.Fatalf("meta: %v/%d", got.Host, got.Days)
	}
	if len(got.Records) != len(c.Records) {
		t.Fatalf("records = %d", len(got.Records))
	}
	for i := range c.Records {
		a, b := c.Records[i], got.Records[i]
		if a.Device != b.Device || a.Day != b.Day || a.SIM != b.SIM || a.TAC != b.TAC {
			t.Fatalf("record %d identity mismatch", i)
		}
		if a.Events != b.Events || a.FailedEvents != b.FailedEvents ||
			a.Calls != b.Calls || a.Bytes != b.Bytes {
			t.Fatalf("record %d counters mismatch", i)
		}
		if a.RadioFlags != b.RadioFlags || a.DataRATs != b.DataRATs || a.VoiceRATs != b.VoiceRATs {
			t.Fatalf("record %d RAT sets mismatch", i)
		}
		if len(a.APNs) != len(b.APNs) || len(a.Visited) != len(b.Visited) {
			t.Fatalf("record %d list lengths mismatch", i)
		}
		for j := range a.APNs {
			if a.APNs[j] != b.APNs[j] {
				t.Fatalf("record %d APN %d mismatch", i, j)
			}
		}
		if a.HasLocation != b.HasLocation || a.GyrationKm != b.GyrationKm {
			t.Fatalf("record %d mobility mismatch", i)
		}
	}
}

func TestCatalogCSVErrors(t *testing.T) {
	cases := map[string]string{
		"missing meta": "device,day\n",
		"bad host":     "#host,abc,days,22\n",
		"bad days":     "#host,23410,days,zero\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadCSV succeeded", name)
		}
	}
	// A malformed data row.
	c := sampleCatalog()
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	broken := strings.Replace(buf.String(), "12345", "not-a-number", 1)
	if _, err := ReadCSV(strings.NewReader(broken)); err == nil {
		t.Error("corrupted bytes field accepted")
	}

	// A device whose rows are split by another device's.
	c.Records = append(c.Records, c.Records[0])
	c.Records[2].Day = 5
	buf.Reset()
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCSV(&buf); err == nil {
		t.Error("a device reappearing after another device's rows was accepted")
	} else if !strings.Contains(err.Error(), "line 5: ") {
		t.Errorf("split device run: error %q does not name the line", err)
	}
	c = sampleCatalog()

	// Rows no writer produces: each case sets one column of the first
	// record of a 4-day catalog. The edge values a writer can produce
	// must still read.
	c.Days = 4
	buf.Reset()
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	withColumn := func(col int, val string) string {
		lines := strings.SplitAfter(buf.String(), "\n")
		row := strings.Split(lines[2], ",")
		row[col] = val
		lines[2] = strings.Join(row, ",")
		return strings.Join(lines, "")
	}
	for _, tc := range []struct {
		name string
		col  int
		val  string
	}{
		{"day past the window", 1, "99"},
		{"day at the window's end", 1, "4"},
		{"negative day", 1, "-3"},
		{"negative events", 5, "-7"},
		{"negative failed", 6, "-1"},
		{"negative calls", 7, "-2"},
		{"negative call_seconds", 8, "-0.5"},
		{"NaN call_seconds", 8, "NaN"},
		{"NaN lat", 14, "NaN"},
		{"lat past the pole", 14, "90.5"},
		{"+Inf lon", 15, "+Inf"},
		{"lon past the antimeridian", 15, "-180.25"},
		{"negative gyration_km", 16, "-5"},
		{"infinite gyration_km", 16, "Inf"},
	} {
		_, err := ReadCSV(strings.NewReader(withColumn(tc.col, tc.val)))
		if err == nil {
			t.Errorf("%s: ReadCSV succeeded", tc.name)
		} else if !strings.Contains(err.Error(), "line 3: ") {
			t.Errorf("%s: error %q does not name the line", tc.name, err)
		}
	}
	for _, tc := range []struct {
		name string
		col  int
		val  string
	}{
		{"last day", 1, "3"},
		{"zero counts", 5, "0"},
		{"south pole", 14, "-90.000000"},
		{"antimeridian", 15, "-180.000000"},
		{"zero gyration_km", 16, "0.0000"},
	} {
		if _, err := ReadCSV(strings.NewReader(withColumn(tc.col, tc.val))); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// FuzzCatalogCSV holds ReadCSV to the rows writers produce: whatever it
// accepts, WriteCSV → ReadCSV → WriteCSV reproduces byte for byte, and
// summarizes without a device split across runs.
func FuzzCatalogCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleCatalog().WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("#host,23410,days,4\nheader\n" +
		"0000000000000007,3,20404,35600001,23410;20801,+5,0,1,1e3,7,15,1,1,\"m2m.example\",-90,180.0000,0.00001,T\n"))
	f.Add([]byte("#host,23410,days,2\nheader\n" +
		"00000000000000AB,1,20404,35600001,,0,0,0,0.05,0,0,0,0,,89.9999999,-179.99999999,12.34567,0\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := ReadCSV(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := c.WriteCSV(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("ReadCSV rejects WriteCSV's output: %v\n%s", err, first.Bytes())
		}
		if err := back.WriteCSV(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip moved bytes:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
		c.SummariesWorkers(nil, 0) // panics on a device split across runs
	})
}
