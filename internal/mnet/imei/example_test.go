package imei_test

import (
	"fmt"

	"wearwild/internal/mnet/imei"
)

// ExampleNew assembles an IMEI from a type allocation code and serial,
// computing the Luhn check digit the way vendors burn identity blocks.
func ExampleNew() {
	id, err := imei.New(35847309, 123456)
	if err != nil {
		panic(err)
	}
	fmt.Println(id)
	fmt.Println("TAC:", id.TAC(), "valid:", id.Valid())
	// Output:
	// 358473091234564
	// TAC: 35847309 valid: true
}

// ExampleParse validates a 15-digit identity, rejecting corrupted digits.
func ExampleParse() {
	if _, err := imei.Parse("358473091234565"); err != nil {
		fmt.Println("rejected: wrong check digit")
	}
	id, _ := imei.Parse("358473091234564")
	fmt.Println("accepted:", id.TAC())
	// Output:
	// rejected: wrong check digit
	// accepted: 35847309
}
