{
  "differentials": [
    [
      [
        "28*x*y^2 + 17*y",
        "0"
      ]
    ],
    [
      [
        "0",
        "0",
        "0"
      ],
      [
        "0",
        "22*x",
        "0"
      ]
    ]
  ],
  "ranks": [
    1,
    2,
    3
  ],
  "ring": {
    "field": {
      "kind": "prime-field",
      "p": 41
    },
    "laurent": false,
    "order": "grlex",
    "variables": [
      "x",
      "y"
    ]
  },
  "type": "free-complex"
}
