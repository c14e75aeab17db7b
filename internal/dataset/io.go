package dataset

import (
	"io"

	"whereroam/internal/signaling"
)

// SaveTransactions writes the M2M dataset's transaction stream in the
// binary wire format.
func (ds *M2MDataset) SaveTransactions(w io.Writer) error {
	return signaling.WriteAll(w, ds.Transactions)
}

// SaveTransactionsCSV writes the transaction stream as CSV.
func (ds *M2MDataset) SaveTransactionsCSV(w io.Writer) error {
	cw := signaling.NewCSVWriter(w)
	for i := range ds.Transactions {
		if err := cw.Write(&ds.Transactions[i]); err != nil {
			return err
		}
	}
	return cw.Flush()
}
