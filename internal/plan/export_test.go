package plan

// SystemKeysForTest exposes the label→key table to package plan_test.
var SystemKeysForTest = systemKeys
