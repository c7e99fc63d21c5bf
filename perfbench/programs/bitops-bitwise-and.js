var bitwiseAndValue = 4294967296;
for (var i = 0; i < 600000; i++)
  bitwiseAndValue = bitwiseAndValue & i;
print(bitwiseAndValue);
